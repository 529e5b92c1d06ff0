"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro import VM, compile_source
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind
from repro.mutation import build_mutation_plan
from repro.opt.bytecode_cfg import BytecodeCFG
from repro.opt.cfg import dominates, immediate_dominators, natural_loops
from repro.opt.fold import NoFold, fold_op
from repro.vm.values import jx_rem, jx_truncate_div
from tests.helpers import AGGRESSIVE, INTERP_ONLY, run_source, wrap_main

# ---------------------------------------------------------------------------
# Lexer round-trips
# ---------------------------------------------------------------------------

ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {
        "class", "interface", "extends", "implements", "static", "public",
        "private", "void", "int", "double", "boolean", "string", "if",
        "else", "while", "for", "return", "new", "this", "super", "true",
        "false", "null", "instanceof", "break", "continue",
    }
)


@given(st.lists(ident, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_lexer_identifier_roundtrip(names):
    toks = tokenize(" ".join(names))
    assert [t.value for t in toks[:-1]] == names
    assert all(t.kind is TokKind.IDENT for t in toks[:-1])


@given(st.integers(min_value=0, max_value=10**12))
@settings(max_examples=50, deadline=None)
def test_lexer_int_roundtrip(n):
    toks = tokenize(str(n))
    assert toks[0].value == n


@given(st.text(
    alphabet=st.characters(
        blacklist_characters='"\\\n', min_codepoint=32, max_codepoint=126
    ),
    max_size=20,
))
@settings(max_examples=50, deadline=None)
def test_lexer_string_roundtrip(text):
    toks = tokenize('"' + text + '"')
    assert toks[0].kind is TokKind.STRING_LIT
    assert toks[0].value == text


# ---------------------------------------------------------------------------
# Java integer semantics helpers
# ---------------------------------------------------------------------------

nonzero = st.integers(min_value=-1000, max_value=1000).filter(lambda x: x)


@given(st.integers(min_value=-10**6, max_value=10**6), nonzero)
@settings(max_examples=100, deadline=None)
def test_truncating_division_identity(a, b):
    q = jx_truncate_div(a, b)
    r = jx_rem(a, b)
    assert q * b + r == a
    assert abs(r) < abs(b)
    # Remainder sign follows the dividend (Java).
    assert r == 0 or (r > 0) == (a > 0)


# ---------------------------------------------------------------------------
# Fold vs. interpreter ground truth on random expressions
# ---------------------------------------------------------------------------

_INT_OPS = ["+", "-", "*", "/", "%", "&", "|", "^"]


def _expr_strategy():
    atoms = st.integers(min_value=-40, max_value=40).map(
        lambda n: f"({n})" if n < 0 else str(n)
    )

    def combine(children):
        return st.tuples(
            children, st.sampled_from(_INT_OPS), children
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")

    return st.recursive(atoms, combine, max_leaves=8)


@given(_expr_strategy())
@settings(max_examples=60, deadline=None)
def test_random_int_expressions_agree_across_tiers(expr):
    # Evaluate in a loop so the method gets hot and recompiled.
    body = f"""
    int acc = 0;
    for (int i = 0; i < 60; i++) {{
        int v = 0;
        boolean ok = true;
        {{
            v = compute();
            if (v == 123456789) {{ ok = false; }}
        }}
        acc = (acc + v) % 1000003;
    }}
    Sys.print("" + acc);
    """
    prelude = f"""
    class E {{
        static int compute0() {{ return 0; }}
    }}
    """
    source = f"""
    class Main {{
        static int compute() {{
            return {expr};
        }}
        static void main() {{
{body}
        }}
    }}
    """
    try:
        expected = run_source(source, INTERP_ONLY)
    except Exception as exc:  # division by zero inside the expression
        assert "zero" in str(exc)
        return
    got = run_source(source, AGGRESSIVE)
    assert got == expected


# ---------------------------------------------------------------------------
# CFG invariants on random branchy programs
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_cfg_dominator_invariants(choices, use_loop):
    # Build a nest of ifs (optionally inside a loop) from the choices.
    body = "int x = 0;\n"
    if use_loop:
        body += "for (int i = 0; i < 3; i++) {\n"
    for k, c in enumerate(choices):
        body += f"if (x % {c + 2} == {c % 2}) {{ x += {k}; }}" \
                f" else {{ x -= 1; }}\n"
    if use_loop:
        body += "}\n"
    body += 'Sys.print("" + x);'
    source = wrap_main(body)
    unit = compile_source(source)
    method = unit.classes["Main"].methods["main"]
    graph = BytecodeCFG(method).graph()
    idoms = immediate_dominators(*graph)
    # Entry dominates every reachable block; idom is a proper ancestor.
    reachable = graph[1]
    for b in reachable:
        assert dominates(idoms, 0, b)
        idom = idoms.get(b)
        if b != 0:
            assert idom is not None
            assert dominates(idoms, idom, b)
    # Loop bodies contain their headers.
    for header, bodyset in natural_loops(*graph):
        assert header in bodyset
        for blk in bodyset:
            assert dominates(idoms, header, blk) or blk == header


# ---------------------------------------------------------------------------
# Mutation equivalence under random state-transition schedules
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),   # object index
            st.integers(min_value=0, max_value=5),   # new state value
        ),
        min_size=0,
        max_size=12,
    )
)
@settings(max_examples=15, deadline=None)
def test_mutation_equivalence_random_transitions(transitions):
    updates = "\n".join(
        f"if (r == {37 * (i + 1) % 500}) "
        f"{{ ((Machine) ms[{obj}]).setMode({val}); }}"
        for i, (obj, val) in enumerate(transitions)
    )
    source = f"""
    class Machine {{
        private int mode;
        double acc;
        Machine(int m) {{ mode = m; }}
        public void setMode(int m) {{ mode = m; }}
        public void work() {{
            if (mode == 0) {{ acc += 1.0; }}
            else if (mode == 1) {{ acc += 2.0; }}
            else if (mode == 2) {{ acc *= 1.01; }}
            else {{ acc -= 0.5; }}
        }}
    }}
    class Main {{
        static void main() {{
            Machine[] ms = new Machine[8];
            for (int i = 0; i < 8; i++) {{ ms[i] = new Machine(i % 3); }}
            for (int r = 0; r < 500; r++) {{
                for (int j = 0; j < 8; j++) {{ ms[j].work(); }}
                {updates}
            }}
            double total = 0.0;
            for (int j = 0; j < 8; j++) {{ total += ms[j].acc; }}
            Sys.print("" + total);
        }}
    }}
    """
    plan = build_mutation_plan(source)
    off = run_source(source, AGGRESSIVE)
    on = run_source(source, AGGRESSIVE, plan=plan)
    assert on == off
