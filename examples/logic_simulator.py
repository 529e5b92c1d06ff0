"""Metamorphic logic simulation — the Maurer-style scenario (paper §1,
§6: SimLogic).

A gate-level netlist where each Gate's `kind` field decides its
evaluation function.  Class mutation splits Gate into per-kind implicit
subclasses (GateAND, GateNAND, ... in spirit), so the hot `eval` loop
dispatches straight to branch-free specialized code.

This example also demonstrates *runtime variant behavior* (paper §1):
mid-simulation, a block of gates is rewired from NAND to XOR — the
mutation manager swaps their TIB pointers to the XOR special TIB on the
spot, and the simulation keeps running specialized code.

Run:  python examples/logic_simulator.py
"""

from repro import VM, compile_source
from repro.mutation import build_mutation_plan

SOURCE = """
class Gate {
    private int kind;   // 0=AND 1=OR 2=NOT 3=XOR 4=NAND
    int in0;
    int in1;
    int out;
    Gate(int k, int a, int b, int o) {
        kind = k;
        in0 = a; in1 = b; out = o;
    }
    public void rewire(int k) { kind = k; }
    public void eval(boolean[] wires) {
        boolean a = wires[in0];
        boolean b = wires[in1];
        boolean r = false;
        if (kind == 0) { r = a && b; }
        else if (kind == 1) { r = a || b; }
        else if (kind == 2) { r = !a; }
        else if (kind == 3) { r = (a && !b) || (!a && b); }
        else { r = !(a && b); }
        wires[out] = r;
    }
}

class Main {
    static void main() {
        Sys.randSeed(2006);
        int inputs = 16;
        int n = 300;
        Gate[] gates = new Gate[n];
        boolean[] wires = new boolean[inputs + n];
        for (int i = 0; i < n; i++) {
            int kind = 4;                       // NAND-heavy netlist
            int roll = Sys.randInt(10);
            if (roll < 4) { kind = roll; }
            gates[i] = new Gate(kind, Sys.randInt(inputs + i),
                                Sys.randInt(inputs + i), inputs + i);
        }
        int checksum = 0;
        for (int cycle = 0; cycle < 1200; cycle++) {
            for (int w = 0; w < inputs; w++) {
                wires[w] = ((cycle * 2654435761 >> (w % 16)) & 1) == 1;
            }
            for (int g = 0; g < n; g++) { gates[g].eval(wires); }
            int high = 0;
            for (int w = 0; w < wires.length; w++) {
                if (wires[w]) { high++; }
            }
            checksum = (checksum + high) % 1000000007;
            // Metamorphosis: halfway through, rewire a block of gates.
            if (cycle == 600) {
                for (int g = 0; g < 40; g++) { gates[g].rewire(3); }
            }
        }
        Sys.print("checksum=" + checksum);
    }
}
"""


def main() -> None:
    plan = build_mutation_plan(SOURCE)
    print("mutation plan:")
    print(plan.describe())
    print()

    off = VM(compile_source(SOURCE))
    r_off = off.run()
    on = VM(compile_source(SOURCE), mutation_plan=plan)
    r_on = on.run()
    assert r_on.output == r_off.output
    print(f"mutation off: {r_off.output.strip()}  {r_off.wall_seconds:.3f}s")
    print(f"mutation on:  {r_on.output.strip()}  {r_on.wall_seconds:.3f}s")
    print(f"speedup: {r_off.wall_seconds / r_on.wall_seconds - 1:+.1%}")
    print()
    print(f"TIB swaps (includes the cycle-600 rewiring wave): "
          f"{on.mutation_stats.tib_swaps}")
    rc = on.classes["Gate"]
    print(f"Gate has {len(rc.special_tibs)} special TIBs "
          f"(one per hot gate kind)")
    rm = rc.own_methods["eval"]
    for key, cm in sorted(rm.specials.items(), key=lambda kv: kv[0]):
        print(f"  specialized eval for kind={key[0][0]}: "
              f"{cm.code_size_bytes} bytes "
              f"(general: {rm.compiled.code_size_bytes})")


if __name__ == "__main__":
    main()
