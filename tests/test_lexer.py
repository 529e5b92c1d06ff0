"""Lexer unit tests, plus a differential check of the regex lexer
against the character-at-a-time lexer it replaced."""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.stdlib import STDLIB_SOURCE
from repro.lang.tokens import KEYWORDS, OPERATORS, TokKind, Token
from repro.workloads import all_workloads

def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokKind.EOF


def test_int_literal():
    toks = tokenize("42")
    assert toks[0].kind is TokKind.INT_LIT
    assert toks[0].value == 42


def test_double_literal():
    toks = tokenize("3.25")
    assert toks[0].kind is TokKind.DOUBLE_LIT
    assert toks[0].value == 3.25


def test_double_with_exponent():
    assert tokenize("1.5e3")[0].value == 1500.0
    assert tokenize("2e-2")[0].value == 0.02


def test_int_followed_by_dot_method_is_not_double():
    # "1.x" style: dot not followed by digit stays separate.
    toks = tokenize("arr.length")
    assert [t.value for t in toks[:-1]] == ["arr", ".", "length"]


def test_string_literal_with_escapes():
    toks = tokenize(r'"a\nb\t\"q\\"')
    assert toks[0].kind is TokKind.STRING_LIT
    assert toks[0].value == 'a\nb\t"q\\'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_newline_in_string_raises():
    with pytest.raises(LexError):
        tokenize('"ab\ncd"')


def test_bad_escape_raises():
    with pytest.raises(LexError):
        tokenize(r'"\q"')


def test_keywords_vs_identifiers():
    toks = tokenize("class classy if iffy")
    assert toks[0].kind is TokKind.KEYWORD
    assert toks[1].kind is TokKind.IDENT
    assert toks[2].kind is TokKind.KEYWORD
    assert toks[3].kind is TokKind.IDENT


def test_line_comments_skipped():
    assert values("a // comment here\n b") == ["a", "b"]


def test_block_comments_skipped():
    assert values("a /* x\ny */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_longest_match_operators():
    assert values("a<=b") == ["a", "<=", "b"]
    assert values("a<<=1") == ["a", "<<=", 1]
    assert values("x++") == ["x", "++"]
    assert values("a&&b||c") == ["a", "&&", "b", "||", "c"]


def test_positions_are_tracked():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_underscore_identifiers():
    toks = tokenize("_foo bar_baz x_1")
    assert [t.value for t in toks[:-1]] == ["_foo", "bar_baz", "x_1"]


def test_superscript_digit_is_a_lex_error():
    # '²'.isdigit() holds but int('²') fails: a LexError, not ValueError.
    with pytest.raises(LexError, match="non-decimal digit '²'") as info:
        tokenize("int x = ²;")
    assert (info.value.line, info.value.col) == (1, 9)
    for source in ("x = 1²;", "1.²", "1e²", "2.5e-²", "y = ³1;"):
        with pytest.raises(LexError):
            tokenize(source)


def test_tokens_are_tuples_with_named_fields():
    tok = tokenize("x")[0]
    assert tok == Token(TokKind.IDENT, "x", 1, 1)
    assert (tok.kind, tok.value, tok.line, tok.col) == tuple(tok)


# ---------------------------------------------------------------------------
# The reference lexer
# ---------------------------------------------------------------------------

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r", "0": "\0"}


class _ReferenceLexer:
    """The character-at-a-time lexer the regex lexer replaced, kept as
    the differential reference (``int('²')`` raises ValueError here)."""

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- character helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    # -- skipping ---------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance()
                self._advance()
                while True:
                    if self.pos >= len(self.source):
                        raise LexError(
                            "unterminated block comment", start_line, start_col
                        )
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    # -- token scanners ------------------------------------------------------------

    def _scan_number(self) -> Token:
        line, col = self.line, self.col
        digits = []
        while self._peek().isdigit():
            digits.append(self._advance())
        is_double = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_double = True
            digits.append(self._advance())
            while self._peek().isdigit():
                digits.append(self._advance())
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_double = True
            digits.append(self._advance())
            if self._peek() in "+-":
                digits.append(self._advance())
            while self._peek().isdigit():
                digits.append(self._advance())
        text = "".join(digits)
        if is_double:
            return Token(TokKind.DOUBLE_LIT, float(text), line, col)
        return Token(TokKind.INT_LIT, int(text), line, col)

    def _scan_string(self) -> Token:
        line, col = self.line, self.col
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise LexError("unterminated string literal", line, col)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\n":
                raise LexError("newline in string literal", line, col)
            if ch == "\\":
                esc = self._advance() if self.pos < len(self.source) else ""
                if esc not in _ESCAPES:
                    raise self._error(f"bad escape sequence '\\{esc}'")
                chars.append(_ESCAPES[esc])
            else:
                chars.append(ch)
        return Token(TokKind.STRING_LIT, "".join(chars), line, col)

    def _scan_word(self) -> Token:
        line, col = self.line, self.col
        chars = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        word = "".join(chars)
        kind = TokKind.KEYWORD if word in KEYWORDS else TokKind.IDENT
        return Token(kind, word, line, col)

    # -- main loop ----------------------------------------------------------------

    def next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.source):
            return Token(TokKind.EOF, None, self.line, self.col)
        ch = self._peek()
        if ch.isdigit():
            return self._scan_number()
        if ch == '"':
            return self._scan_string()
        if ch.isalpha() or ch == "_":
            return self._scan_word()
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                line, col = self.line, self.col
                for _ in op:
                    self._advance()
                return Token(TokKind.PUNCT, op, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def tokenize(self) -> list[Token]:
        """Return the full token list, terminated by a single EOF token."""
        tokens = []
        while True:
            tok = self.next_token()
            tokens.append(tok)
            if tok.kind is TokKind.EOF:
                return tokens


# ---------------------------------------------------------------------------
# Differential: the regex lexer against the reference
# ---------------------------------------------------------------------------

def _outcome(lex, source):
    """Tokens as plain tuples, or the LexError's (message, line, col)."""
    try:
        return "tokens", [tuple(t) for t in lex(source)]
    except LexError as e:
        return "error", (e.message, e.line, e.col)


def _agree(source):
    try:
        expected = _outcome(
            lambda s: _ReferenceLexer(s).tokenize(), source
        )
    except ValueError:
        # The reference's one bug: a digit that is not decimal reached
        # int() or float().  The regex lexer reports it as a LexError.
        with pytest.raises(LexError, match="non-decimal digit"):
            tokenize(source)
        return
    assert _outcome(tokenize, source) == expected, source


def _example_sources():
    """Every module-level string constant in ``examples/`` (the examples
    that run a shipped workload are covered by the workload test)."""
    root = pathlib.Path(__file__).resolve().parent.parent / "examples"
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                yield f"{path.name}:{node.targets[0].id}", node.value.value


def test_regex_lexer_matches_reference_on_stdlib():
    assert len(tokenize(STDLIB_SOURCE)) > 1000
    _agree(STDLIB_SOURCE)


@pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
def test_regex_lexer_matches_reference_on_workloads(spec):
    _agree(spec.bench_source())
    _agree(spec.profile_source())


def test_regex_lexer_matches_reference_on_examples():
    sources = list(_example_sources())
    assert sources, "no Jx source found in examples/"
    for _name, source in sources:
        _agree(source)


@pytest.mark.parametrize("source", [
    "", "   ", "\n\n", "a /* x", "/*", "/*/", "/**/x", "a/**/b", "//",
    "x // c", '"', '"abc', '"ab\ncd"', '"\\q"', '"\\', '"a\\\nb"',
    '"\\\r"', '"\\n\\t\\"\\\\\\r\\0"', "1.x", "1.", "1..2",
    "1.5.6", "1e5.6", "1e", "1e+", "1E-3", "1.5e", "00012", "a#b", "@",
    "\\", "\f", "\u00bd", "x\u00bd", "\u2460", "_", "a\u0301", "\r\nx",
    "\u0663 x\u00b2 \u00e9t\u00e9",
    "\tx\n\ty", "<<=>>=", "a<=b>=c", "x++--", "\u0663.\u0665e\u0661",
])
def test_regex_lexer_matches_reference_on_corners(source):
    _agree(source)


_PIECES = st.sampled_from(
    sorted(KEYWORDS) + OPERATORS + [
        " ", "  ", "\t", "\n", "\r", "/*", "*/", "//", "/", "*", '"',
        "\\", "\\n", "\\q", "x", "_a1", "7", "3.25", ".5", "1e3", "2E-1",
        "e", "E+", "#", "\u00b2", "\u0663", "\u00e9", "\u00bd",
    ]
)


@given(st.lists(_PIECES, max_size=24).map("".join))
@settings(max_examples=300, deadline=None)
def test_regex_lexer_matches_reference_on_generated_pieces(source):
    _agree(source)


@given(st.text(
    alphabet=st.characters(max_codepoint=0x2500, blacklist_categories=("Cs",)),
    max_size=40,
))
@settings(max_examples=300, deadline=None)
def test_regex_lexer_matches_reference_on_generated_text(source):
    _agree(source)
