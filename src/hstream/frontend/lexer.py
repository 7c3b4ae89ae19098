"""Tokenizer for the C-like host subset plus the stream pragma.

One table of token patterns, compiled into a single alternation, is matched
at each position; the name of the group that matched is the token's kind.
Comments and whitespace are consumed, never emitted. Positions are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import field
from enum import Enum

from hstream import errors
from hstream.errors import CompileError
from hstream.ir import syntax_node


class TokenKind(Enum):
    IDENT = "identifier"
    INT = "integer"
    FLOAT = "float"
    KEYWORD = "keyword"
    PUNCT = "punctuation"
    PRAGMA = "pragma"  # the `#pragma hstream` introducer
    END = "end of input"  # the parser's sentinel; never produced by `lex`


# (group, pattern), tried in order after any run of blanks. A group named
# after a TokenKind makes a token of that kind; `skip` (line breaks, comments
# and the end of input) makes none; the rest only lead to a diagnostic, so
# that some group matches at every position. Punctuation is single
# characters only: the grammar needs nothing longer.
_TOKEN_PATTERNS = (
    ("skip", r"\n[ \t\r\n]*|//[^\n]*|/\*.*?\*/|\Z"),
    ("unterminated", r"/\*"),
    ("PRAGMA", r"\#pragma(?![A-Za-z_])[ \t]*hstream(?![A-Za-z_])"),
    ("hash", r"\#"),
    ("FLOAT", r"\d+\.\d+(?:[eE][+-]?\d+)?"),
    ("INT", r"\d+"),
    ("KEYWORD", r"(?:int|double|stream)(?![A-Za-z0-9_])"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("PUNCT", r"[;,(){}\[\]:=+\-*/<>]"),
    ("illegal", r"."),
)
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_PATTERNS) + ")",
    re.DOTALL)
# The kinds whose lexeme is the matched text.
_KINDS = {name: TokenKind[name] for name in ("FLOAT", "INT", "KEYWORD", "IDENT", "PUNCT")}
_WORD_RE = re.compile(r"[A-Za-z_]+")


@syntax_node
class Token:
    kind: TokenKind
    lexeme: str
    line: int = field(compare=False)
    col: int = field(compare=False)

    def __repr__(self) -> str:
        return f"{self.kind.name}({self.lexeme!r})@{self.line}:{self.col}"


def lex(source: str) -> list[Token]:
    """Tokenize source text; raises CompileError on an illegal construct."""
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        kind = kinds.get(group)
        if kind is not None:
            append(Token(kind, m[group], line, m.start(group) - line_start + 1))
        elif group == "skip":
            text = m[group]
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start(group) + text.rindex("\n") + 1
        elif group == "PRAGMA":
            append(Token(TokenKind.PRAGMA, "#pragma hstream", line,
                         m.start(group) - line_start + 1))
        else:
            start = m.start(group)
            _raise_at(source, start, line, start - line_start + 1, group)
    return tokens


def _raise_at(source: str, pos: int, line: int, col: int, group: str) -> None:
    """The diagnostic for an illegal construct starting at `pos`."""
    if group == "unterminated":
        raise CompileError.single(line, col, errors.SYNTAX, "unterminated block comment")
    if group == "hash":
        m = _WORD_RE.match(source, pos + 1)
        if not m or m.group() != "pragma":
            raise CompileError.single(line, col, errors.ILLEGAL_CHAR,
                                      "stray '#' (only '#pragma hstream' is recognized)")
        after = m.end()
        while after < len(source) and source[after] in " \t":
            after += 1
        m = _WORD_RE.match(source, after)
        got = m.group() if m else "<end of line>"
        raise CompileError.single(line, col, errors.BAD_PRAGMA, f"unsupported pragma '{got}'")
    raise CompileError.single(line, col, errors.ILLEGAL_CHAR,
                              f"illegal character {source[pos]!r}")
