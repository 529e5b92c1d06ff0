"""Quickstart: compile a Jx program, build a mutation plan offline, and
watch dynamic class hierarchy mutation specialize a hot method.

This walks the paper's SalaryDB example (Figure 2) end to end:

1. compile Jx source to bytecode;
2. run the offline pipeline — hot-method profiling, EQ1 state-field
   analysis, hot-state value profiling — to produce a MutationPlan;
3. run the program twice (mutation off / on) and compare;
4. print the specialized code the mutation framework generated.

Run:  python examples/quickstart.py
"""

from repro import VM, compile_source
from repro.mutation import build_mutation_plan

SOURCE = """
class Employee {
    double salary;
    public void raise() { }
}

class SalaryEmployee extends Employee {
    private int grade;   // can only be 0 to 3
    SalaryEmployee(int g) { grade = g; }
    public void raise() {
        if (grade < 0 || grade > 3) { Sys.print("bad grade"); }
        if (grade == 0) { salary += 1.0; }
        else if (grade == 1) { salary += 2.0; }
        else if (grade == 2) { salary *= 1.01; }
        else { salary *= 1.02; }
    }
}

class Main {
    static void main() {
        Employee[] emps = new Employee[40];
        for (int i = 0; i < 40; i++) { emps[i] = new SalaryEmployee(i % 4); }
        for (int it = 0; it < 4000; it++) {
            for (int j = 0; j < emps.length; j++) { emps[j].raise(); }
        }
        double total = 0.0;
        for (int j = 0; j < 40; j++) { total += emps[j].salary; }
        Sys.print("total=" + total);
    }
}
"""


def main() -> None:
    print("=== 1. Offline analysis (paper Fig. 3) ===")
    plan = build_mutation_plan(SOURCE)
    print(plan.describe())
    print()

    print("=== 2. Mutation OFF ===")
    vm_off = VM(compile_source(SOURCE))
    result_off = vm_off.run()
    print(result_off.output.strip(),
          f"  ({result_off.wall_seconds:.3f}s)")

    print()
    print("=== 3. Mutation ON ===")
    vm_on = VM(compile_source(SOURCE), mutation_plan=plan)
    result_on = vm_on.run()
    print(result_on.output.strip(),
          f"  ({result_on.wall_seconds:.3f}s)")
    assert result_on.output == result_off.output, "behavior must not change!"
    speedup = result_off.wall_seconds / result_on.wall_seconds - 1
    print(f"speedup: {speedup:+.1%}   "
          f"TIB swaps: {vm_on.mutation_stats.tib_swaps}")

    print()
    print("=== 4. What the mutation framework generated ===")
    print(vm_on.mutation_manager.describe())
    rm = vm_on.classes["SalaryEmployee"].own_methods["raise"]
    print()
    print("--- general raise() (paper Fig. 2c: one dispatch chain) ---")
    print(rm.compiled.source_text)
    special = rm.specials[((0,), ())]
    print("--- specialized raise() for grade=0 (paper Fig. 2b/d) ---")
    print(special.source_text)


if __name__ == "__main__":
    main()
