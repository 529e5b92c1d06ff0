"""Language/compiler corner cases across all tiers."""

from repro.bytecode import CodeBuilder, Op, make_method
from repro.bytecode.classfile import VOID
from repro.lang import compile_source
from repro.opt.bytecode_cfg import BytecodeCFG
from repro.opt.cfg import (
    dominates,
    immediate_dominators,
    loop_depths,
    natural_loops,
)
from repro.opt.lowering import lower_method
from repro.vm.linker import Linker
from tests.helpers import assert_all_tiers_agree, run_source, wrap_main


def test_static_compound_ops():
    source = """
    class G {
        static int x;
        static double d;
    }
    class Main {
        static void main() {
            G.x += 5; G.x *= 3; G.x -= 1; G.x <<= 2; G.x ^= 7;
            G.d += 0.5; G.d *= 4.0;
            Sys.print(G.x + " " + G.d);
        }
    }
    """
    # 0 +5=5, *3=15, -1=14, <<2=56, ^7=63; 0.0 +0.5=0.5, *4=2.0
    assert run_source(source) == "63 2.0\n"


def test_clinit_order_follows_linking():
    source = """
    class A { static int x = 10; }
    class B { static int y = A.x + 5; }
    class Main { static void main() { Sys.print("" + B.y); } }
    """
    # A links before B (alphabetical insertion order of the source).
    assert run_source(source) == "15\n"


def test_two_dimensional_arrays():
    body = """
    int[][] m = new int[3][];
    for (int i = 0; i < 3; i++) {
        m[i] = new int[4];
        for (int j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
    }
    int total = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) { total += m[i][j]; }
    }
    Sys.print("" + total);
    """
    assert run_source(wrap_main(body)) == "138\n"


def test_for_without_condition_and_update():
    body = """
    int i = 0;
    for (;;) {
        i++;
        if (i == 5) { break; }
    }
    for (int j = 0; j < 3;) { j++; i += j; }
    Sys.print("" + i);
    """
    assert run_source(wrap_main(body)) == "11\n"


def test_ternary_with_reference_branches():
    source = """
    class A { public string who() { return "A"; } }
    class B extends A { public string who() { return "B"; } }
    class Main {
        static void main() {
            for (int i = 0; i < 2; i++) {
                A x = i == 0 ? new A() : new B();
                Sys.print(x.who());
            }
        }
    }
    """
    assert run_source(source) == "A\nB\n"


def test_string_compound_concat():
    body = """
    string s = "a";
    s += "b";
    s += 1;
    s += 2.5;
    s += true;
    Sys.print(s);
    """
    assert run_source(wrap_main(body)) == "ab12.5true\n"


def test_deeply_nested_control_flow_all_tiers():
    assert_all_tiers_agree(
        wrap_main(
            """
            int acc = 0;
            for (int a = 0; a < 4; a++) {
                for (int b = 0; b < 4; b++) {
                    int c = 0;
                    while (c < 4) {
                        if ((a + b + c) % 2 == 0) {
                            if (a > b) { acc += 1; }
                            else if (b > c) { acc += 2; }
                            else { acc += 3; }
                        } else {
                            acc -= 1;
                            if (acc < 0) { acc = 100 - acc; }
                        }
                        c++;
                    }
                }
            }
            Sys.print("" + acc);
            """
        )
    )


def test_interface_array_polymorphism_all_tiers():
    assert_all_tiers_agree(
        """
        interface Fn { int call(int x); }
        class Add implements Fn {
            int k;
            Add(int k0) { k = k0; }
            public int call(int x) { return x + k; }
        }
        class Mul implements Fn {
            int k;
            Mul(int k0) { k = k0; }
            public int call(int x) { return x * k; }
        }
        class Main {
            static void main() {
                Fn[] fns = new Fn[4];
                fns[0] = new Add(1); fns[1] = new Mul(2);
                fns[2] = new Add(5); fns[3] = new Mul(3);
                int v = 1;
                for (int i = 0; i < 600; i++) {
                    v = fns[i % 4].call(v) % 10007;
                }
                Sys.print("" + v);
            }
        }
        """
    )


# -- IR CFG utilities ----------------------------------------------------------

def lowered_main(body):
    source = wrap_main(body)
    unit = compile_source(source)
    Linker(unit).link()
    return lower_method(unit.classes["Main"].methods["main"])


def test_ir_dominators_and_loops():
    fn = lowered_main(
        """
        int acc = 0;
        for (int i = 0; i < 10; i++) {
            for (int j = 0; j < 10; j++) { acc += j; }
        }
        Sys.print("" + acc);
        """
    )
    idom = immediate_dominators(*fn.graph())
    assert idom[fn.entry] is None
    for bid in fn.reachable_ids():
        assert dominates(idom, fn.entry, bid)
    loops = natural_loops(*fn.graph())
    assert len(loops) == 2
    depths = loop_depths(*fn.graph())
    assert max(depths.values()) == 2  # the inner loop body
    # The nested loop body is contained in the outer loop body.
    (h1, body1), (h2, body2) = sorted(loops, key=lambda hl: len(hl[1]))
    assert body1 < body2


def test_ir_loop_free_function_has_no_loops():
    fn = lowered_main('Sys.print("x");')
    assert natural_loops(*fn.graph()) == []
    assert set(loop_depths(*fn.graph()).values()) <= {0}


def test_unreachable_block_is_in_no_loop():
    """A block no path from the entry reaches has loop depth 0 (EQ1's
    ``Li``), even when it jumps into a loop body: loop bodies are
    collected over reachable predecessors only, as in the IR."""
    cb = CodeBuilder(num_params=0)
    head, body, done = cb.new_label(), cb.new_label(), cb.new_label()
    i = cb.alloc_local()
    cb.const(0)
    cb.store(i)
    cb.place(head)
    cb.load(i)
    cb.const(10)
    cb.emit(Op.CMP_LT)
    cb.jump_if_false(done)
    cb.place(body)
    cb.load(i)
    cb.const(1)
    cb.emit(Op.ADD)
    cb.store(i)
    cb.jump(head)
    dead = len(cb.code)
    cb.jump(body)  # nothing reaches this block
    cb.place(done)
    cb.emit(Op.RETURN_VOID)
    method = make_method("m", "C", [], VOID, cb, is_static=True)
    cfg = BytecodeCFG(method)
    depths = [cfg.instr_loop_depth(pc) for pc in range(len(method.code))]
    assert depths == [0, 0] + [1] * 9 + [0, 0]
    assert method.code[dead].op is Op.JUMP and depths[dead] == 0
