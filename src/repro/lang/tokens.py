"""Token definitions for the Jx language."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokKind(enum.Enum):
    # literals / identifiers
    INT_LIT = "int literal"
    DOUBLE_LIT = "double literal"
    STRING_LIT = "string literal"
    IDENT = "identifier"
    # keywords
    KEYWORD = "keyword"
    # punctuation / operators (kind stores the lexeme itself)
    PUNCT = "punct"
    EOF = "eof"


# Bound once: a ``TokKind.X`` read costs several module-global reads.
_PUNCT = TokKind.PUNCT
_KEYWORD = TokKind.KEYWORD

KEYWORDS = frozenset(
    {
        "class",
        "interface",
        "extends",
        "implements",
        "static",
        "public",
        "private",
        "void",
        "int",
        "double",
        "boolean",
        "string",
        "if",
        "else",
        "while",
        "for",
        "return",
        "new",
        "this",
        "super",
        "true",
        "false",
        "null",
        "instanceof",
        "break",
        "continue",
    }
)

# Longest-match-first operator table.
OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]


class Token(NamedTuple):
    kind: TokKind
    value: Any
    line: int
    col: int

    def is_punct(self, lexeme: str) -> bool:
        return self.kind is _PUNCT and self.value == lexeme

    def is_keyword(self, word: str) -> bool:
        return self.kind is _KEYWORD and self.value == word

    def __str__(self) -> str:
        if self.kind in (TokKind.PUNCT, TokKind.KEYWORD):
            return f"'{self.value}'"
        if self.kind is TokKind.EOF:
            return "end of input"
        return f"{self.kind.value} {self.value!r}"
