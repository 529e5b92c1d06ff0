"""End-to-end language semantics on the opt0 interpreter."""

import pytest

from repro import VM, VMConfig, compile_source
from repro.bytecode.builder import CodeBuilder, make_method
from repro.bytecode.classfile import INT
from repro.bytecode.opcodes import QUICK_OPS, Op
from repro.vm.interpreter import JxStackTrace
from tests.helpers import INTERP_ONLY, run_source, wrap_main


def out(body, prelude=""):
    return run_source(wrap_main(body, prelude))


def test_arithmetic_and_print():
    assert out('Sys.print("" + (1 + 2 * 3));') == "7\n"


def test_integer_division_truncates_toward_zero():
    assert out('Sys.print((0-7)/2 + " " + 7/2);') == "-3 3\n"


def test_remainder_sign_follows_dividend():
    assert out('Sys.print((0-7)%3 + " " + 7%3);') == "-1 1\n"


def test_division_by_zero_raises():
    with pytest.raises(JxStackTrace):
        out("int x = 1 / 0;")


def test_double_arithmetic():
    assert out('Sys.print("" + (1.5 * 2.0 + 0.25));') == "3.25\n"


def test_mixed_int_double_promotes():
    assert out('Sys.print("" + (1 + 0.5));') == "1.5\n"


def test_string_coercion_rules():
    assert out('Sys.print("" + true + " " + null + " " + 1.0);') \
        == "true null 1.0\n"


def test_shortcircuit_and_does_not_evaluate_rhs():
    prelude = """
    class T {
        static int calls;
        static boolean touch() { calls++; return true; }
    }
    """
    body = """
    boolean b = false && T.touch();
    Sys.print(T.calls + " " + b);
    """
    assert out(body, prelude) == "0 false\n"


def test_shortcircuit_or():
    assert out('Sys.print("" + (true || 1/0 == 0));') == "true\n"


def test_while_and_break_continue():
    body = """
    int total = 0;
    int i = 0;
    while (true) {
        i++;
        if (i % 2 == 0) { continue; }
        if (i > 9) { break; }
        total += i;
    }
    Sys.print("" + total);
    """
    assert out(body) == "25\n"


def test_for_with_continue_runs_update():
    body = """
    int n = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) { continue; }
        n++;
    }
    Sys.print("" + n);
    """
    assert out(body) == "5\n"


def test_nested_loops():
    body = """
    int total = 0;
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j <= i; j++) { total += j; }
    }
    Sys.print("" + total);
    """
    assert out(body) == "10\n"


def test_arrays_default_values():
    body = """
    int[] a = new int[2];
    double[] d = new double[2];
    boolean[] b = new boolean[2];
    string[] s = new string[2];
    Sys.print(a[0] + " " + d[1] + " " + b[0] + " " + s[1]);
    """
    assert out(body) == "0 0.0 false null\n"


def test_array_bounds_checked():
    with pytest.raises(JxStackTrace) as err:
        out("int[] a = new int[2]; int x = a[2];")
    assert "out of range" in str(err.value)


def test_negative_index_rejected():
    with pytest.raises(JxStackTrace):
        out("int[] a = new int[2]; a[0-1] = 5;")


def test_null_dereference_reports_stack():
    prelude = "class P { int f; }"
    with pytest.raises(JxStackTrace) as err:
        out("P p = null; int x = p.f;", prelude)
    assert "Main.main" in str(err.value)


def test_string_equality_by_value():
    body = """
    string a = "he" + "llo";
    Sys.print("" + (a == "hello") + (a != "world"));
    """
    assert out(body) == "truetrue\n"


def test_reference_equality_is_identity():
    prelude = "class P { }"
    body = """
    P a = new P();
    P b = new P();
    P c = a;
    Sys.print("" + (a == b) + (a == c) + (a != b));
    """
    assert out(body, prelude) == "falsetruetrue\n"


def test_fields_and_methods():
    prelude = """
    class Counter {
        private int n;
        Counter(int start) { n = start; }
        public void add(int k) { n += k; }
        public int value() { return n; }
    }
    """
    body = """
    Counter c = new Counter(10);
    c.add(5);
    c.add(7);
    Sys.print("" + c.value());
    """
    assert out(body, prelude) == "22\n"


def test_virtual_dispatch_overrides():
    prelude = """
    class A { public string who() { return "A"; } }
    class B extends A { public string who() { return "B"; } }
    class C extends B { }
    """
    body = """
    A[] xs = new A[3];
    xs[0] = new A(); xs[1] = new B(); xs[2] = new C();
    string s = "";
    for (int i = 0; i < 3; i++) { s += xs[i].who(); }
    Sys.print(s);
    """
    assert out(body, prelude) == "ABB\n"


def test_super_call():
    prelude = """
    class A { public string who() { return "A"; } }
    class B extends A {
        public string who() { return super.who() + "B"; }
    }
    """
    assert out('Sys.print(new B().who());', prelude) == "AB\n"


def test_private_method_statically_bound():
    prelude = """
    class A {
        private string secret() { return "A"; }
        public string reveal() { return secret(); }
    }
    """
    assert out('Sys.print(new A().reveal());', prelude) == "A\n"


def test_interface_dispatch():
    prelude = """
    interface Shape { double area(); }
    class Square implements Shape {
        double side;
        Square(double s) { side = s; }
        public double area() { return side * side; }
    }
    class Circle implements Shape {
        double r;
        Circle(double r0) { r = r0; }
        public double area() { return 3.0 * r * r; }
    }
    """
    body = """
    Shape a = new Square(2.0);
    Shape b = new Circle(1.0);
    Sys.print(a.area() + " " + b.area());
    """
    assert out(body, prelude) == "4.0 3.0\n"


def test_instanceof_and_checkcast():
    prelude = """
    class A { }
    class B extends A { public int id() { return 1; } }
    """
    body = """
    A x = new B();
    Sys.print("" + (x instanceof B) + (x instanceof A));
    B b = (B) x;
    Sys.print("" + b.id());
    """
    assert out(body, prelude) == "truetrue\n1\n"


def test_bad_cast_raises():
    prelude = "class A { } class B extends A { }"
    with pytest.raises(JxStackTrace) as err:
        out("A x = new A(); B b = (B) x;", prelude)
    assert "cast" in str(err.value)


def test_null_cast_and_instanceof():
    prelude = "class A { }"
    body = """
    A a = null;
    A b = (A) a;
    Sys.print("" + (a instanceof A) + (b == null));
    """
    assert out(body, prelude) == "falsetrue\n"


def test_static_fields_shared():
    prelude = """
    class G {
        static int count;
        static void bump() { count++; }
    }
    """
    body = """
    G.bump(); G.bump(); G.bump();
    Sys.print("" + G.count);
    """
    assert out(body, prelude) == "3\n"


def test_static_initializer_runs_once():
    prelude = "class G { static int x = 41; }"
    assert out('Sys.print("" + (G.x + 1));', prelude) == "42\n"


def test_instance_field_initializers_in_ctor():
    prelude = """
    class P {
        int a = 5;
        int b;
        P() { b = a * 2; }
    }
    """
    assert out('P p = new P(); Sys.print(p.a + " " + p.b);', prelude) \
        == "5 10\n"


def test_ctor_chaining_with_this():
    prelude = """
    class P {
        int v;
        P() { this(99); }
        P(int x) { v = x; }
    }
    """
    assert out('Sys.print("" + new P().v);', prelude) == "99\n"


def test_recursion():
    prelude = """
    class R {
        static int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
    }
    """
    assert out('Sys.print("" + R.fib(12));', prelude) == "144\n"


def test_ternary_expression():
    assert out('int x = 5; Sys.print(x > 3 ? "big" : "small");') == "big\n"


def test_bitwise_and_shifts():
    assert out('Sys.print((5 & 3) + " " + (5 | 2) + " " + (1 << 4) '
               '+ " " + (16 >> 2) + " " + (5 ^ 1));') == "1 7 16 4 4\n"


def test_compound_assign_on_array_element():
    body = """
    int[] a = new int[3];
    a[1] = 10;
    a[1] += 5;
    a[1] *= 2;
    Sys.print("" + a[1]);
    """
    assert out(body) == "30\n"


def test_compound_assign_evaluates_receiver_once():
    prelude = """
    class Box { int v; }
    class M {
        static int calls;
        static Box pick(Box b) { calls++; return b; }
    }
    """
    body = """
    Box b = new Box();
    M.pick(b).v += 7;
    Sys.print(M.calls + " " + b.v);
    """
    assert out(body, prelude) == "1 7\n"


def test_deterministic_rng():
    body = """
    Sys.randSeed(7);
    string s = "";
    for (int i = 0; i < 5; i++) { s += Sys.randInt(10) + ","; }
    Sys.print(s);
    """
    first = out(body)
    assert first == out(body)
    assert len(first.split(",")) == 6


#: Holds every pristine opcode the front end emits; ``Main.swapSub`` is
#: reassembled below with the two it never emits, SWAP and NOP.
ALL_OPS_SOURCE = """
interface Shape { int area(); }
class Rect implements Shape {
    int w;
    int h;
    Rect(int w0, int h0) { w = w0; h = h0; }
    public int area() { return w * h; }
    public int grow(int d) { w += d; return w; }
}
class Square extends Rect {
    Square(int s) { super(s, s); }
    public int area() { return super.area() + 0; }
}
class Main {
    static int count;
    static int swapSub(int a, int b) { return a - b; }
    static void main() {
        Shape s = new Square(3);
        Rect r = new Rect(2, 5);
        r.grow(1);
        int[] xs = new int[4];
        for (int i = 0; i < xs.length; i++) { xs[i] = i * i; }
        int t = xs[3] / 2 + xs[2] % 3 - (0 - 1);
        int bits = (t << 2) >> 1;
        bits = (bits & 12) | (bits ^ 5);
        double d = t;
        d = d / 4.0;
        int back = (int) d;
        boolean b = !(t <= 3) && t >= 1 || t > 100 || t != 7;
        boolean eq = t == 9;
        Shape q = r;
        Rect rr = (Rect) q;
        if (s instanceof Rect) { count = count + 10; }
        Sys.print(s.area() + " " + rr.area() + " " + t + " " + bits + " "
                  + d + " " + back + " " + b + " " + eq + " " + -t + " "
                  + count + " " + swapSub(2, 9));
    }
}
"""


def _all_ops_vm(quicken):
    unit = compile_source(ALL_OPS_SOURCE)
    cb = CodeBuilder(num_params=2)
    cb.load(0)
    cb.load(1)
    cb.emit(Op.SWAP)
    cb.emit(Op.NOP)
    cb.emit(Op.SUB)
    cb.emit(Op.RETURN)
    unit.classes["Main"].methods["swapSub"] = make_method(
        "swapSub", "Main", [INT, INT], INT, cb, is_static=True
    )
    return VM(unit, adaptive_config=INTERP_ONLY,
              config=VMConfig(quicken=quicken))


@pytest.mark.parametrize("quicken", [False, True])
def test_every_pristine_opcode_runs_through_the_one_loop(quicken):
    """The interpreter loop runs every opcode outside ``QUICK_OPS``,
    over pristine bodies (quickening off) and quickened ones alike."""
    vm = _all_ops_vm(quicken)
    assert vm.run().output == "9 15 6 13 1.5 1 true false -6 10 7\n"
    ran = [rm for rm in vm.all_runtime_methods() if rm.samples.invocations]
    assert {instr.op for rm in ran for instr in rm.info.code} == (
        set(Op) - QUICK_OPS
    )
    assert all((rm.quick_code is not None) is quicken for rm in ran)
