"""Regex-driven lexer for the Jx language.

Supports ``//`` line comments and ``/* ... */`` block comments, decimal
int and double literals, and double-quoted string literals with the
escape set ``\\n \\t \\" \\\\ \\r \\0``.

One compiled master pattern matches the next token (or run of trivia)
at the current position; malformed input falls through to the error
paths at the bottom of :func:`tokenize`.  Columns count characters
from 1, and a line starts after each ``\\n``.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, OPERATORS, TokKind, Token

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r", "0": "\0"}

# ``\d`` is str.isdecimal() and ``\w`` is str.isalnum() or "_", so the
# pattern follows the str predicates the language is defined by.
_MASTER = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<word>\w+)"
    r'|(?P<str>"(?:[^"\\\n]|\\[nt"\\r0])*")'
    r"|(?P<open>/\*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")",
    re.DOTALL,
)
#: The longest well-formed prefix of a string literal that has no end.
_STRING_PREFIX = re.compile(r'"(?:[^"\\\n]|\\[nt"\\r0])*')
_ESCAPE = re.compile(r"\\(.)")


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def _overrun_digit(source: str, text: str, end: int) -> str | None:
    """The digit that is not decimal (``'²'.isdigit()`` holds, but
    ``int('²')`` fails) which the number literal ``text`` ending at
    ``end`` runs on into, or None when the literal ends cleanly."""
    nxt = source[end:end + 1]
    after = source[end + 1:end + 2]
    if nxt.isdigit():
        return nxt
    if nxt == "." and text.isdigit() and after.isdigit():
        return after
    if nxt in ("e", "E") and "e" not in text and "E" not in text:
        if after.isdigit():
            return after
        if after in ("+", "-") and source[end + 2:end + 3].isdigit():
            return source[end + 2]
    return None


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Tokenize ``source`` and return the token list (EOF-terminated).

    Raises:
        LexError: On a malformed literal, an unterminated comment or
            string, or a character that starts no token.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    n = len(source)
    pos = 0
    line = 1
    line_start = 0  # index of the first character of ``line``
    while pos < n:
        m = match(source, pos)
        col = pos - line_start + 1
        kind = m.lastgroup if m is not None else None
        if kind == "skip":
            end = m.end()
            breaks = source.count("\n", pos, end)
            if breaks:
                line += breaks
                line_start = source.rfind("\n", pos, end) + 1
            pos = end
            continue
        if kind == "word":
            word = m.group()
            first = word[0]
            if first.isalpha() or first == "_":
                append(Token(
                    TokKind.KEYWORD if word in KEYWORDS else TokKind.IDENT,
                    word, line, col,
                ))
                pos = m.end()
                continue
            if first.isdigit():
                raise LexError(
                    f"non-decimal digit {first!r} in number literal",
                    line, col,
                )
            raise LexError(f"unexpected character {first!r}", line, col)
        if kind == "op":
            append(Token(TokKind.PUNCT, m.group(), line, col))
            pos = m.end()
            continue
        if kind == "num":
            end = m.end()
            text = m.group()
            bad = _overrun_digit(source, text, end)
            if bad is not None:
                raise LexError(
                    f"non-decimal digit {bad!r} in number literal",
                    line, col,
                )
            if text.isdigit():
                append(Token(TokKind.INT_LIT, int(text), line, col))
            else:
                append(Token(TokKind.DOUBLE_LIT, float(text), line, col))
            pos = end
            continue
        if kind == "str":
            body = source[pos + 1:m.end() - 1]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(Token(TokKind.STRING_LIT, body, line, col))
            pos = m.end()
            continue
        if kind == "open":
            raise LexError("unterminated block comment", line, col)
        ch = source[pos]
        if ch == '"':
            raise _string_error(source, pos, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)
    append(Token(TokKind.EOF, None, line, pos - line_start + 1))
    return tokens


def _string_error(source: str, pos: int, line: int, col: int) -> LexError:
    """The error for the string literal opening at ``pos`` (``col`` on
    ``line``), which the master pattern could not match."""
    stop = _STRING_PREFIX.match(source, pos).end()
    if stop >= len(source):
        return LexError("unterminated string literal", line, col)
    if source[stop] == "\n":
        return LexError("newline in string literal", line, col)
    # A backslash whose escape character is not in the set: report the
    # position just past that character, as a reader scanning it would.
    esc = source[stop + 1:stop + 2]
    if esc == "\n":
        return LexError(f"bad escape sequence '\\{esc}'", line + 1, 1)
    return LexError(
        f"bad escape sequence '\\{esc}'",
        line, col + (stop - pos) + 1 + len(esc),
    )
