"""Recursive-descent parser for the Jx language.

Jx is a Java-like subset: classes with single inheritance, interfaces,
static and instance fields/methods, constructors (arity-overloaded),
arrays, and the usual statement/expression forms.  Method overloading is
not supported (one method per name per class), which keeps resolution —
and the paper's per-method specialization bookkeeping — simple.
"""

from __future__ import annotations

from repro.bytecode.classfile import JxType
from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind, Token

_PRIMITIVE_TYPES = ("int", "double", "boolean", "string")
_COMPOUND_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                 "<<=": "<<", ">>=": ">>", "&=": "&", "|=": "|", "^=": "^"}

#: Binding power of each binary operator, loosest first; every level is
#: left-associative.
_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
#: ``instanceof`` binds at the relational level and ends that chain.
_RELATIONAL = 7
_TIGHTEST = max(_BINARY_PREC.values())

_PUNCT = TokKind.PUNCT
_KEYWORD = TokKind.KEYWORD


class Parser:
    """Parses one Jx compilation unit (any number of class declarations)."""

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.tokens = tokenize(source, filename)
        self.filename = filename
        self.pos = 0

    # -- token stream helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]  # EOF

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def _error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(message, tok.line, tok.col)

    def _expect_punct(self, lexeme: str) -> Token:
        tok = self._next()
        if not tok.is_punct(lexeme):
            raise self._error(f"expected '{lexeme}', found {tok}", tok)
        return tok

    def _expect_keyword(self, word: str) -> Token:
        tok = self._next()
        if not tok.is_keyword(word):
            raise self._error(f"expected '{word}', found {tok}", tok)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind is not TokKind.IDENT:
            raise self._error(f"expected identifier, found {tok}", tok)
        return tok

    def _accept_punct(self, lexeme: str) -> bool:
        if self._peek().is_punct(lexeme):
            self._next()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._next()
            return True
        return False

    # -- types --------------------------------------------------------------------

    def _at_type_start(self) -> bool:
        tok = self._peek()
        return tok.kind is TokKind.KEYWORD and tok.value in _PRIMITIVE_TYPES

    def _parse_type(self) -> JxType:
        tok = self._next()
        if tok.kind is TokKind.KEYWORD and tok.value in (
            *_PRIMITIVE_TYPES,
            "void",
        ):
            name = tok.value
        elif tok.kind is TokKind.IDENT:
            name = tok.value
        else:
            raise self._error(f"expected type, found {tok}", tok)
        dims = 0
        while self._peek().is_punct("[") and self._peek(1).is_punct("]"):
            self._next()
            self._next()
            dims += 1
        return JxType(name, dims)

    # -- program / declarations ------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes = []
        while self._peek().kind is not TokKind.EOF:
            classes.append(self._parse_class())
        return ast.Program(classes=classes, source_name=self.filename)

    def _parse_class(self) -> ast.ClassDecl:
        tok = self._peek()
        if tok.is_keyword("interface"):
            return self._parse_interface()
        self._expect_keyword("class")
        name_tok = self._expect_ident()
        decl = ast.ClassDecl(name=name_tok.value, line=name_tok.line)
        if self._accept_keyword("extends"):
            decl.super_name = self._expect_ident().value
        if self._accept_keyword("implements"):
            decl.interfaces.append(self._expect_ident().value)
            while self._accept_punct(","):
                decl.interfaces.append(self._expect_ident().value)
        self._expect_punct("{")
        while not self._accept_punct("}"):
            self._parse_member(decl)
        return decl

    def _parse_interface(self) -> ast.ClassDecl:
        self._expect_keyword("interface")
        name_tok = self._expect_ident()
        decl = ast.ClassDecl(
            name=name_tok.value, is_interface=True, line=name_tok.line
        )
        if self._accept_keyword("extends"):
            decl.interfaces.append(self._expect_ident().value)
            while self._accept_punct(","):
                decl.interfaces.append(self._expect_ident().value)
        self._expect_punct("{")
        while not self._accept_punct("}"):
            ret = self._parse_type()
            mname = self._expect_ident()
            params = self._parse_params()
            self._expect_punct(";")
            decl.methods.append(
                ast.MethodDecl(
                    name=mname.value,
                    params=params,
                    return_type=ret,
                    body=None,
                    line=mname.line,
                )
            )
        return decl

    def _parse_member(self, decl: ast.ClassDecl) -> None:
        access = "default"
        is_static = False
        while True:
            tok = self._peek()
            if tok.is_keyword("public"):
                access = "public"
                self._next()
            elif tok.is_keyword("private"):
                access = "private"
                self._next()
            elif tok.is_keyword("static"):
                is_static = True
                self._next()
            else:
                break
        # Constructor: ClassName "(" ...
        tok = self._peek()
        if (
            tok.kind is TokKind.IDENT
            and tok.value == decl.name
            and self._peek(1).is_punct("(")
        ):
            self._next()
            params = self._parse_params()
            body = self._parse_block()
            decl.methods.append(
                ast.MethodDecl(
                    name="<init>",
                    params=params,
                    return_type=JxType("void"),
                    body=body,
                    is_constructor=True,
                    access=access if access != "default" else "public",
                    line=tok.line,
                )
            )
            return
        member_type = self._parse_type()
        name_tok = self._expect_ident()
        if self._peek().is_punct("("):
            params = self._parse_params()
            body = self._parse_block()
            decl.methods.append(
                ast.MethodDecl(
                    name=name_tok.value,
                    params=params,
                    return_type=member_type,
                    body=body,
                    is_static=is_static,
                    access=access if access != "default" else "public",
                    line=name_tok.line,
                )
            )
            return
        # Field declaration (possibly a comma-separated list).
        if member_type.name == "void":
            raise self._error("field cannot have type void", name_tok)
        while True:
            init = self._parse_expr() if self._accept_punct("=") else None
            decl.fields.append(
                ast.FieldDecl(
                    name=name_tok.value,
                    type=member_type,
                    is_static=is_static,
                    access=access,
                    init=init,
                    line=name_tok.line,
                )
            )
            if self._accept_punct(","):
                name_tok = self._expect_ident()
                continue
            self._expect_punct(";")
            return

    def _parse_params(self) -> list[ast.Param]:
        self._expect_punct("(")
        params: list[ast.Param] = []
        if not self._accept_punct(")"):
            while True:
                ptype = self._parse_type()
                pname = self._expect_ident()
                params.append(
                    ast.Param(type=ptype, name=pname.value, line=pname.line)
                )
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        return params

    # -- statements -----------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_tok = self._expect_punct("{")
        stmts = []
        while not self._accept_punct("}"):
            stmts.append(self._parse_stmt())
        return ast.Block(stmts=stmts, line=open_tok.line)

    def _at_local_decl(self) -> bool:
        """True if the next tokens begin a local variable declaration."""
        tok = self._peek()
        if self._at_type_start():
            return True
        if tok.kind is not TokKind.IDENT:
            return False
        # "Foo x" or "Foo[] x" or "Foo[][] x"
        i = 1
        while self._peek(i).is_punct("[") and self._peek(i + 1).is_punct("]"):
            i += 2
        return self._peek(i).kind is TokKind.IDENT

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expr()
            self._expect_punct(";")
            return ast.Return(value=value, line=tok.line)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return ast.Break(line=tok.line)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return ast.Continue(line=tok.line)
        if tok.is_keyword("super") and self._peek(1).is_punct("("):
            self._next()
            args = self._parse_args()
            self._expect_punct(";")
            return ast.CtorCall(kind="super", args=args, line=tok.line)
        if tok.is_keyword("this") and self._peek(1).is_punct("("):
            self._next()
            args = self._parse_args()
            self._expect_punct(";")
            return ast.CtorCall(kind="this", args=args, line=tok.line)
        if self._at_local_decl():
            stmt = self._parse_var_decl()
            self._expect_punct(";")
            return stmt
        stmt = self._parse_simple_stmt()
        self._expect_punct(";")
        return stmt

    def _parse_var_decl(self) -> ast.Stmt:
        vtype = self._parse_type()
        name_tok = self._expect_ident()
        init = self._parse_expr() if self._accept_punct("=") else None
        decls: list[ast.Stmt] = [
            ast.VarDecl(
                type=vtype, name=name_tok.value, init=init, line=name_tok.line
            )
        ]
        while self._accept_punct(","):
            name_tok = self._expect_ident()
            init = self._parse_expr() if self._accept_punct("=") else None
            decls.append(
                ast.VarDecl(
                    type=vtype,
                    name=name_tok.value,
                    init=init,
                    line=name_tok.line,
                )
            )
        if len(decls) == 1:
            return decls[0]
        return ast.Block(stmts=decls, line=decls[0].line)

    def _parse_simple_stmt(self) -> ast.Stmt:
        """Assignment, increment/decrement, or expression statement."""
        start = self._peek()
        expr = self._parse_expr()
        tok = self._peek()
        if tok.is_punct("="):
            self._next()
            value = self._parse_expr()
            self._check_lvalue(expr, start)
            return ast.Assign(target=expr, value=value, line=start.line)
        for lexeme, op in _COMPOUND_OPS.items():
            if tok.is_punct(lexeme):
                self._next()
                value = self._parse_expr()
                self._check_lvalue(expr, start)
                stmt = ast.Assign(target=expr, value=value, line=start.line)
                stmt.compound_op = op  # type: ignore[attr-defined]
                return stmt
        if tok.is_punct("++") or tok.is_punct("--"):
            self._next()
            self._check_lvalue(expr, start)
            stmt = ast.Assign(
                target=expr, value=ast.IntLit(value=1, line=tok.line),
                line=start.line,
            )
            stmt.compound_op = "+" if tok.value == "++" else "-"  # type: ignore[attr-defined]
            return stmt
        if not isinstance(expr, (ast.MethodCall, ast.New)):
            raise self._error("expression is not a statement", start)
        return ast.ExprStmt(expr=expr, line=start.line)

    def _check_lvalue(self, expr: ast.Expr, tok: Token) -> None:
        if not isinstance(expr, (ast.Name, ast.FieldAccess, ast.Index)):
            raise self._error("invalid assignment target", tok)

    def _parse_if(self) -> ast.If:
        tok = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_stmt()
        otherwise = self._parse_stmt() if self._accept_keyword("else") else None
        return ast.If(cond=cond, then=then, otherwise=otherwise, line=tok.line)

    def _parse_while(self) -> ast.While:
        tok = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_stmt()
        return ast.While(cond=cond, body=body, line=tok.line)

    def _parse_for(self) -> ast.For:
        tok = self._expect_keyword("for")
        self._expect_punct("(")
        init: ast.Stmt | None = None
        if not self._peek().is_punct(";"):
            if self._at_local_decl():
                init = self._parse_var_decl()
            else:
                init = self._parse_simple_stmt()
        self._expect_punct(";")
        cond = None if self._peek().is_punct(";") else self._parse_expr()
        self._expect_punct(";")
        update: ast.Stmt | None = None
        if not self._peek().is_punct(")"):
            update = self._parse_simple_stmt()
        self._expect_punct(")")
        body = self._parse_stmt()
        return ast.For(
            init=init, cond=cond, update=update, body=body, line=tok.line
        )

    # -- expressions --------------------------------------------------------------

    def _parse_args(self) -> list[ast.Expr]:
        self._expect_punct("(")
        args: list[ast.Expr] = []
        if not self._accept_punct(")"):
            args.append(self._parse_expr())
            while self._accept_punct(","):
                args.append(self._parse_expr())
            self._expect_punct(")")
        return args

    def _parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept_punct("?"):
            then = self._parse_expr()
            self._expect_punct(":")
            otherwise = self._parse_ternary()
            return ast.Ternary(
                cond=cond, then=then, otherwise=otherwise, line=cond.line
            )
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_PREC`: the operand and
        every operator binding at ``min_prec`` or tighter.

        After an operator at level ``p``, only operators at ``p`` or
        looser may follow here (tighter ones went into its right
        operand), and after ``instanceof`` only those looser than the
        relational level, so ``a instanceof T < b`` stops at ``<``.
        """
        left = self._parse_unary()
        cap = _TIGHTEST
        while True:
            tok = self._peek()
            kind = tok.kind
            if kind is _PUNCT:
                prec = _BINARY_PREC.get(tok.value, 0)
            elif kind is _KEYWORD and tok.value == "instanceof":
                prec = _RELATIONAL
            else:
                return left
            if prec < min_prec or prec > cap:
                return left
            self._next()
            if kind is _KEYWORD:
                rtype = self._parse_type()
                left = ast.InstanceOf(expr=left, type=rtype, line=left.line)
                cap = _RELATIONAL - 1
            else:
                right = self._parse_binary(prec + 1)
                left = ast.BinOp(
                    op=tok.value, left=left, right=right, line=tok.line
                )
                cap = prec

    def _looks_like_cast(self) -> bool:
        """Disambiguate ``(Type) expr`` from parenthesized expressions."""
        if not self._peek().is_punct("("):
            return False
        inner = self._peek(1)
        i = 2
        if inner.kind is TokKind.KEYWORD and inner.value in _PRIMITIVE_TYPES:
            pass
        elif inner.kind is TokKind.IDENT:
            pass
        else:
            return False
        while self._peek(i).is_punct("[") and self._peek(i + 1).is_punct("]"):
            i += 2
        if not self._peek(i).is_punct(")"):
            return False
        nxt = self._peek(i + 1)
        if inner.kind is TokKind.KEYWORD:
            return True  # primitive cast is unambiguous
        return (
            nxt.kind in (TokKind.IDENT, TokKind.INT_LIT, TokKind.DOUBLE_LIT,
                         TokKind.STRING_LIT)
            or nxt.is_punct("(")
            or nxt.is_keyword("this")
            or nxt.is_keyword("new")
            or nxt.is_keyword("true")
            or nxt.is_keyword("false")
            or nxt.is_keyword("null")
        )

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.is_punct("-"):
            self._next()
            operand = self._parse_unary()
            return ast.UnOp(op="-", operand=operand, line=tok.line)
        if tok.is_punct("!"):
            self._next()
            operand = self._parse_unary()
            return ast.UnOp(op="!", operand=operand, line=tok.line)
        if self._looks_like_cast():
            self._next()  # "("
            ctype = self._parse_type()
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(type=ctype, expr=operand, line=tok.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("."):
                self._next()
                name = self._expect_ident()
                if self._peek().is_punct("("):
                    args = self._parse_args()
                    expr = ast.MethodCall(
                        receiver=expr,
                        name=name.value,
                        args=args,
                        line=name.line,
                    )
                else:
                    expr = ast.FieldAccess(
                        receiver=expr, name=name.value, line=name.line
                    )
            elif tok.is_punct("["):
                self._next()
                index = self._parse_expr()
                self._expect_punct("]")
                expr = ast.Index(array=expr, index=index, line=tok.line)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokKind.INT_LIT:
            self._next()
            return ast.IntLit(value=tok.value, line=tok.line)
        if tok.kind is TokKind.DOUBLE_LIT:
            self._next()
            return ast.DoubleLit(value=tok.value, line=tok.line)
        if tok.kind is TokKind.STRING_LIT:
            self._next()
            return ast.StringLit(value=tok.value, line=tok.line)
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self._next()
            return ast.BoolLit(value=tok.value == "true", line=tok.line)
        if tok.is_keyword("null"):
            self._next()
            return ast.NullLit(line=tok.line)
        if tok.is_keyword("this"):
            self._next()
            return ast.This(line=tok.line)
        if tok.is_keyword("super"):
            self._next()
            self._expect_punct(".")
            name = self._expect_ident()
            args = self._parse_args()
            return ast.MethodCall(
                receiver=None,
                name=name.value,
                args=args,
                is_super=True,
                line=name.line,
            )
        if tok.is_keyword("new"):
            return self._parse_new()
        if tok.kind is TokKind.IDENT:
            self._next()
            if self._peek().is_punct("("):
                args = self._parse_args()
                return ast.MethodCall(
                    receiver=None, name=tok.value, args=args, line=tok.line
                )
            return ast.Name(ident=tok.value, line=tok.line)
        if tok.is_punct("("):
            self._next()
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise self._error(f"unexpected token {tok} in expression", tok)

    def _parse_new(self) -> ast.Expr:
        tok = self._expect_keyword("new")
        type_tok = self._next()
        if type_tok.kind is TokKind.KEYWORD and type_tok.value in _PRIMITIVE_TYPES:
            base = type_tok.value
            is_class = False
        elif type_tok.kind is TokKind.IDENT:
            base = type_tok.value
            is_class = True
        else:
            raise self._error(f"expected type after 'new', found {type_tok}")
        if self._peek().is_punct("("):
            if not is_class:
                raise self._error("cannot construct a primitive", type_tok)
            args = self._parse_args()
            return ast.New(class_name=base, args=args, line=tok.line)
        self._expect_punct("[")
        length = self._parse_expr()
        self._expect_punct("]")
        extra_dims = 0
        while self._peek().is_punct("[") and self._peek(1).is_punct("]"):
            self._next()
            self._next()
            extra_dims += 1
        return ast.NewArray(
            elem_type=JxType(base, extra_dims), length=length, line=tok.line
        )


def parse_source(source: str, filename: str = "<source>") -> ast.Program:
    """Parse Jx source text into an AST :class:`~repro.lang.ast.Program`."""
    return Parser(source, filename).parse_program()
