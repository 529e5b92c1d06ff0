"""Parser unit tests, plus a differential check of the precedence-climbing
expression parser against the one-method-per-level chain it replaced."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.bytecode.classfile import JxType
from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.parser import Parser, parse_source
from repro.lang.stdlib import STDLIB_SOURCE
from repro.lang.tokens import TokKind
from repro.workloads import all_workloads


def parse_one(source):
    program = parse_source(source)
    assert len(program.classes) == 1
    return program.classes[0]


def first_stmt(body_src):
    cls = parse_one(
        "class C { void m() { " + body_src + " } }"
    )
    return cls.methods[0].body.stmts[0]


def expr_of(expr_src):
    stmt = first_stmt("int x = " + expr_src + ";")
    return stmt.init


def test_empty_class():
    cls = parse_one("class Foo { }")
    assert cls.name == "Foo"
    assert cls.super_name is None
    assert not cls.is_interface


def test_extends_and_implements():
    cls = parse_one("class A extends B implements I, J { }")
    assert cls.super_name == "B"
    assert cls.interfaces == ["I", "J"]


def test_interface_decl():
    cls = parse_one("interface I { int f(int x); void g(); }")
    assert cls.is_interface
    assert [m.name for m in cls.methods] == ["f", "g"]
    assert cls.methods[0].body is None


def test_field_declarations():
    cls = parse_one(
        "class C { int a; private static double b; string x, y; }"
    )
    names = [f.name for f in cls.fields]
    assert names == ["a", "b", "x", "y"]
    assert cls.fields[1].is_static
    assert cls.fields[1].access == "private"
    assert cls.fields[2].type == JxType("string")


def test_field_initializer():
    cls = parse_one("class C { static int a = 5; }")
    assert isinstance(cls.fields[0].init, ast.IntLit)


def test_constructor_detected():
    cls = parse_one("class C { C(int x) { } }")
    assert cls.methods[0].is_constructor
    assert cls.methods[0].params[0].name == "x"


def test_array_types():
    cls = parse_one("class C { int[] a; string[][] b; }")
    assert cls.fields[0].type == JxType("int", 1)
    assert cls.fields[1].type == JxType("string", 2)


def test_precedence_mul_over_add():
    e = expr_of("1 + 2 * 3")
    assert isinstance(e, ast.BinOp) and e.op == "+"
    assert isinstance(e.right, ast.BinOp) and e.right.op == "*"


def test_precedence_comparison_over_and():
    cls = parse_one("class C { void m() { boolean b = 1 < 2 && 3 < 4; } }")
    e = cls.methods[0].body.stmts[0].init
    assert e.op == "&&"
    assert e.left.op == "<"


def test_ternary():
    e = expr_of("1 < 2 ? 3 : 4")
    assert isinstance(e, ast.Ternary)


def test_parenthesized_not_cast():
    e = expr_of("(1 + 2) * 3")
    assert isinstance(e, ast.BinOp) and e.op == "*"


def test_primitive_cast():
    e = expr_of("(int) 3.5")
    assert isinstance(e, ast.Cast)
    assert e.type == JxType("int")


def test_class_cast():
    stmt = first_stmt("Object o = (Object) x;")
    assert isinstance(stmt.init, ast.Cast)


def test_instanceof():
    stmt = first_stmt("boolean b = x instanceof Foo;")
    assert isinstance(stmt.init, ast.InstanceOf)


def test_new_object_and_array():
    assert isinstance(expr_of("new Foo(1, 2)"), ast.New)
    arr = first_stmt("int[] a = new int[10];").init
    assert isinstance(arr, ast.NewArray)
    assert arr.elem_type == JxType("int")


def test_new_array_of_arrays():
    stmt = first_stmt("int[][] a = new int[5][];")
    assert stmt.init.elem_type == JxType("int", 1)


def test_method_call_chain():
    e = expr_of("a.b().c(1)")
    assert isinstance(e, ast.MethodCall) and e.name == "c"
    assert isinstance(e.receiver, ast.MethodCall)


def test_index_chain():
    stmt = first_stmt("int v = m[1][2];")
    assert isinstance(stmt.init, ast.Index)
    assert isinstance(stmt.init.array, ast.Index)


def test_compound_assignment_records_op():
    stmt = first_stmt("x += 2;")
    assert isinstance(stmt, ast.Assign)
    assert stmt.compound_op == "+"


def test_increment_statement():
    stmt = first_stmt("x++;")
    assert stmt.compound_op == "+"
    assert isinstance(stmt.value, ast.IntLit)


def test_for_loop_parts():
    stmt = first_stmt("for (int i = 0; i < 3; i++) { }")
    assert isinstance(stmt, ast.For)
    assert isinstance(stmt.init, ast.VarDecl)
    assert isinstance(stmt.update, ast.Assign)


def test_dangling_else_binds_inner():
    stmt = first_stmt("if (a) if (b) x = 1; else x = 2;")
    assert isinstance(stmt, ast.If)
    assert stmt.otherwise is None
    assert isinstance(stmt.then, ast.If)
    assert stmt.then.otherwise is not None


def test_super_and_this_ctor_calls():
    cls = parse_one("class C { C() { super(1); } C(int x) { this(); } }")
    assert cls.methods[0].body.stmts[0].kind == "super"
    assert cls.methods[1].body.stmts[0].kind == "this"


def test_super_method_call():
    stmt = first_stmt("super.m(1);")
    assert isinstance(stmt, ast.ExprStmt)
    assert stmt.expr.is_super


def test_bad_assignment_target_raises():
    with pytest.raises(ParseError):
        parse_source("class C { void m() { 1 = 2; } }")


def test_expression_statement_must_be_call():
    with pytest.raises(ParseError):
        parse_source("class C { void m() { a + b; } }")


def test_missing_semicolon_raises():
    with pytest.raises(ParseError):
        parse_source("class C { void m() { int x = 1 } }")


def test_void_field_rejected():
    with pytest.raises(ParseError):
        parse_source("class C { void f; }")


# ---------------------------------------------------------------------------
# The reference parser
# ---------------------------------------------------------------------------

class _ReferenceParser(Parser):
    """The parser with its ten-level binary-expression chain (one method
    per precedence level) and clamping ``_peek``, kept as the
    differential reference."""

    def _peek(self, offset: int = 0):
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_or()
        if self._accept_punct("?"):
            then = self._parse_expr()
            self._expect_punct(":")
            otherwise = self._parse_ternary()
            return ast.Ternary(
                cond=cond, then=then, otherwise=otherwise, line=cond.line
            )
        return cond

    def _binop_level(self, sub, lexemes):
        left = sub()
        while True:
            tok = self._peek()
            if tok.kind is TokKind.PUNCT and tok.value in lexemes:
                self._next()
                right = sub()
                left = ast.BinOp(
                    op=tok.value, left=left, right=right, line=tok.line
                )
            else:
                return left

    def _parse_or(self):
        return self._binop_level(self._parse_and, ("||",))

    def _parse_and(self):
        return self._binop_level(self._parse_bitor, ("&&",))

    def _parse_bitor(self):
        return self._binop_level(self._parse_bitxor, ("|",))

    def _parse_bitxor(self):
        return self._binop_level(self._parse_bitand, ("^",))

    def _parse_bitand(self):
        return self._binop_level(self._parse_equality, ("&",))

    def _parse_equality(self):
        return self._binop_level(self._parse_relational, ("==", "!="))

    def _parse_relational(self):
        left = self._binop_level(self._parse_shift, ("<", "<=", ">", ">="))
        if self._accept_keyword("instanceof"):
            rtype = self._parse_type()
            return ast.InstanceOf(expr=left, type=rtype, line=left.line)
        return left

    def _parse_shift(self):
        return self._binop_level(self._parse_additive, ("<<", ">>"))

    def _parse_additive(self):
        return self._binop_level(self._parse_multiplicative, ("+", "-"))

    def _parse_multiplicative(self):
        return self._binop_level(self._parse_unary, ("*", "/", "%"))


# ---------------------------------------------------------------------------
# Differential: the precedence-climbing parser against the reference
# ---------------------------------------------------------------------------

def _dump(node):
    """A node as nested plain data: its type and every attribute, the
    ones the parser sets outside the dataclass fields included
    (``Assign.compound_op``)."""
    if isinstance(node, list):
        return [_dump(n) for n in node]
    if dataclasses.is_dataclass(node) and not isinstance(node, JxType):
        return (type(node).__name__,
                {k: _dump(v) for k, v in sorted(vars(node).items())})
    return node


def _parse_outcome(parser_cls, source):
    """The program as :func:`_dump` data, or the ParseError's
    (message, line, col)."""
    try:
        return "ast", _dump(parser_cls(source).parse_program())
    except ParseError as e:
        return "error", (e.message, e.line, e.col)


def _agree(source):
    expected = _parse_outcome(_ReferenceParser, source)
    assert _parse_outcome(Parser, source) == expected, source
    return expected


def test_parser_matches_reference_on_stdlib():
    kind, _ = _agree(STDLIB_SOURCE)
    assert kind == "ast"


@pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
def test_parser_matches_reference_on_workloads(spec):
    assert _agree(spec.bench_source())[0] == "ast"
    assert _agree(spec.profile_source())[0] == "ast"


def _in_method(expr):
    return "class C { void m() { x = " + expr + "; } }"


@pytest.mark.parametrize("expr, found", [
    ("a instanceof T + 1", "'+'"),
    ("a instanceof T < b", "'<'"),
    ("a instanceof T instanceof U", "'instanceof'"),
    ("a == b instanceof T < c", "'<'"),
])
def test_instanceof_ends_the_relational_chain(expr, found):
    kind, (message, line, col) = _agree(_in_method(expr))
    assert kind == "error"
    assert message == f"expected ';', found {found}"
    assert (line, col) == (1, len("class C { void m() { x = ")
                              + expr.rindex(found.strip("'")) + 1)


@pytest.mark.parametrize("expr", [
    "a < b instanceof T",
    "a + b instanceof T == c",
    "a == b instanceof T",
    "a instanceof T == b < c",
    "a instanceof T != b && c instanceof U || d",
    "a instanceof T ? b : c",
    "a instanceof T & b | c ^ d",
    "a - b - c * d / e % f << 2 >> 1",
    "a || b && c || d",
])
def test_instanceof_and_precedence_corners(expr):
    assert _agree(_in_method(expr))[0] == "ast"


_BINARY_OPS = ["||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=",
               "<<", ">>", "+", "-", "*", "/", "%"]
_ATOMS = st.sampled_from(
    ["a", "b", "1", "2.5", '"s"', "true", "null", "this", "x.f", "m(1)",
     "arr[0]", "new Foo()"]
)


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from(_BINARY_OPS), sub).map(" ".join),
        st.tuples(st.sampled_from(["-", "!", "(int) ", "(double) ",
                                   "(Foo) ", "(Foo[]) "]),
                  sub).map("".join),
        st.tuples(sub, st.sampled_from(["Foo", "int", "Foo[]"])).map(
            " instanceof ".join),
        st.tuples(sub, sub, sub).map(lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        sub.map(lambda e: f"({e})"),
    )


@given(st.recursive(_ATOMS, _extend, max_leaves=12))
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference_on_generated_expressions(expr):
    _agree(_in_method(expr))


_CHAIN_STEPS = st.one_of(
    st.tuples(st.sampled_from(_BINARY_OPS), _ATOMS).map(" ".join),
    st.sampled_from(["instanceof Foo", "instanceof int[]"]),
)


@given(st.tuples(_ATOMS, st.lists(_CHAIN_STEPS, max_size=8)).map(
    lambda t: " ".join([t[0], *t[1]])))
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference_on_generated_operator_chains(expr):
    """Unparenthesized chains, so every pair of neighbouring operators,
    ``instanceof`` included, meets in one precedence loop."""
    _agree(_in_method(expr))


@given(st.lists(
    st.sampled_from(_BINARY_OPS + ["a", "1", "instanceof", "T", "?", ":",
                                   "(", ")", "-", "!", "(int)", "="]),
    max_size=16,
).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference_on_generated_token_runs(expr):
    _agree(_in_method(expr))
