"""Cross-tier equivalence: opt0 (interpreter), opt1 and opt2 (generated
Python from two pass schedules) must produce identical program output."""

import pytest

from tests.helpers import (
    AGGRESSIVE,
    assert_all_tiers_agree,
    run_vm,
    wrap_main,
)

LOOPY = """
class Work {
    int acc;
    public void step(int i) {
        if (i % 3 == 0) { acc += i; }
        else if (i % 3 == 1) { acc -= i; }
        else { acc ^= i; }
    }
}
class Main {
    static void main() {
        Work w = new Work();
        for (int i = 0; i < 500; i++) { w.step(i); }
        Sys.print("" + w.acc);
    }
}
"""


def test_loopy_program_all_tiers():
    assert_all_tiers_agree(LOOPY)


def test_hot_method_reaches_opt2():
    vm = run_vm(LOOPY, AGGRESSIVE)
    rm = vm.classes["Work"].own_methods["step"]
    assert rm.compiled.opt_level == 2


def test_loop_only_method_promoted_via_backedges():
    source = wrap_main(
        """
        int total = 0;
        for (int i = 0; i < 3000; i++) { total += i; }
        Sys.print("" + total);
        """
    )
    vm = run_vm(source, AGGRESSIVE)
    rm = vm.classes["Main"].own_methods["main"]
    # main is invoked once; only backedge ticks can promote it.
    assert rm.compiled.opt_level >= 1
    assert vm.output == "4498500\n"


def test_string_building_all_tiers():
    assert_all_tiers_agree(
        wrap_main(
            """
            StringBuilder sb = new StringBuilder();
            for (int i = 0; i < 120; i++) {
                sb.append("i=").appendInt(i).append(";");
            }
            Sys.print("" + Sys.len(sb.toString()));
            """
        )
    )


def test_double_math_all_tiers():
    assert_all_tiers_agree(
        wrap_main(
            """
            double total = 0.0;
            for (int i = 1; i < 300; i++) {
                total += Sys.sqrt(i + 0.0) * 1.25 - i / 7;
            }
            Sys.print("" + total);
            """
        )
    )


def test_virtual_dispatch_all_tiers():
    assert_all_tiers_agree(
        """
        class A { public int f(int x) { return x + 1; } }
        class B extends A { public int f(int x) { return x * 2; } }
        class Main {
            static void main() {
                A[] xs = new A[2];
                xs[0] = new A(); xs[1] = new B();
                int total = 0;
                for (int i = 0; i < 400; i++) {
                    total += xs[i % 2].f(i);
                }
                Sys.print("" + total);
            }
        }
        """
    )


def test_interface_dispatch_all_tiers():
    assert_all_tiers_agree(
        """
        interface Op { int apply(int x); }
        class Inc implements Op { public int apply(int x) { return x + 1; } }
        class Dbl implements Op { public int apply(int x) { return x * 2; } }
        class Main {
            static void main() {
                Op[] ops = new Op[2];
                ops[0] = new Inc(); ops[1] = new Dbl();
                int v = 1;
                for (int i = 0; i < 300; i++) { v = ops[i % 2].apply(v) % 9973; }
                Sys.print("" + v);
            }
        }
        """
    )


def test_exception_semantics_preserved_at_opt2():
    source = """
    class Main {
        static int probe(int[] a, int i) {
            return a[i];
        }
        static void main() {
            int[] a = new int[4];
            int hits = 0;
            for (int r = 0; r < 200; r++) {
                hits += probe(a, r % 4);
            }
            Sys.print("" + hits);
        }
    }
    """
    assert_all_tiers_agree(source)


def test_rng_stream_identical_across_tiers():
    assert_all_tiers_agree(
        wrap_main(
            """
            Sys.randSeed(99);
            int acc = 0;
            for (int i = 0; i < 500; i++) { acc += Sys.randInt(1000); }
            Sys.print("" + acc + " " + Sys.randDouble());
            """
        )
    )


def test_recursive_method_all_tiers():
    assert_all_tiers_agree(
        """
        class R {
            static int ack(int m, int n) {
                if (m == 0) { return n + 1; }
                if (n == 0) { return ack(m - 1, 1); }
                return ack(m - 1, ack(m, n - 1));
            }
        }
        class Main {
            static void main() { Sys.print("" + R.ack(2, 6)); }
        }
        """
    )


def test_infinite_loop_with_break_all_tiers():
    assert_all_tiers_agree(
        wrap_main(
            """
            int i = 0;
            while (true) {
                i++;
                if (i >= 1000) { break; }
            }
            Sys.print("" + i);
            """
        )
    )


def test_compile_stats_populated():
    vm = run_vm(LOOPY, AGGRESSIVE)
    stats = vm.compile_stats
    assert stats.total_seconds > 0
    assert stats.total_code_bytes > 0
    assert any(e.opt_level == 2 for e in stats.events)
