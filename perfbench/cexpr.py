"""A reader for the C statements the benchmark checks, written apart from hstream.

Text is split with C's own tokens (longest match first, so `--` is one
decrement token and `b[i]--c[i]` is not a subtraction), subscripts are
stripped, and the assignment is evaluated with numpy. Both the source
statement and the emitted one go through this reader, so two statements agree
only when they compute the same values in the same order.
"""

from __future__ import annotations

import re

import numpy as np

_TOKEN = re.compile(r"""
    \s*(?:
      (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct>\+\+|--|->|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%=<>!&|^~?:;,.()\[\]{}])
    )""", re.VERBOSE)

C_TYPES = {"int": np.int64, "double": np.float64}


class ReadError(ValueError):
    """A statement is not a plain elementwise assignment in C."""


def tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ReadError(f"no C token at {text[pos:]!r}")
        out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


def strip_subscripts(toks: list[str]) -> list[str]:
    """Drop every `[ ... ]` group: `a[i]` reads as the current element `a`."""
    out, depth = [], 0
    for tok in toks:
        if tok == "[":
            depth += 1
        elif tok == "]":
            if depth == 0:
                raise ReadError("unbalanced ']'")
            depth -= 1
        elif depth == 0:
            out.append(tok)
    if depth:
        raise ReadError("unbalanced '['")
    return out


def read_statement(text: str):
    """('decl', type, name) for `double t;`, or ('assign', target, expr
    tokens) for `target = expr;`, subscripts stripped."""
    toks = strip_subscripts(tokens(text))
    if not toks or toks[-1] != ";":
        raise ReadError(f"statement does not end in ';': {text!r}")
    toks = toks[:-1]
    if len(toks) == 2 and toks[0] in C_TYPES:
        return ("decl", toks[0], toks[1])
    if len(toks) < 3 or toks[1] != "=" or not re.fullmatch(r"[A-Za-z_]\w*", toks[0]):
        raise ReadError(f"not an assignment: {text!r}")
    return ("assign", toks[0], toks[2:])


class _Evaluator:
    """expr: term (+|- term)*; term: unary (*|/ unary)*;
    unary: - unary | + unary | primary; primary: number | name | ( expr )."""

    def __init__(self, toks: list[str], env: dict):
        self.toks, self.pos, self.env = toks, 0, env

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ReadError("expression ends early")
        self.pos += 1
        return tok

    def run(self):
        value = self.expr()
        if self.peek() is not None:
            raise ReadError(f"unexpected {self.peek()!r} in expression")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            right = self.term()
            value = value + right if op == "+" else value - right
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            right = self.unary()
            value = value * right if op == "*" else _c_divide(value, right)
        return value

    def unary(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.unary()
        if tok == "+":
            self.take()
            return self.unary()
        return self.primary()

    def primary(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ReadError("missing ')'")
            return value
        if re.fullmatch(r"\d+", tok):
            return int(tok)
        if re.fullmatch(r"[\d.]+(?:[eE][+-]?\d+)?", tok):
            return float(tok)
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            if tok not in self.env:
                raise ReadError(f"unknown name {tok!r}")
            return self.env[tok]
        raise ReadError(f"{tok!r} is not an operand here")


def _c_divide(left, right):
    if _is_int(left) and _is_int(right):
        a, b = np.asarray(left), np.asarray(right)
        return np.sign(a) * np.sign(b) * (np.abs(a) // np.abs(b))
    return np.true_divide(left, right)


def _is_int(value) -> bool:
    if isinstance(value, np.ndarray):
        return np.issubdtype(value.dtype, np.integer)
    return isinstance(value, (int, np.integer))


def evaluate(expr_tokens: list[str], env: dict):
    return _Evaluator(expr_tokens, env).run()


def run_statements(statements: list[str], env: dict, length: int) -> dict:
    """Execute statements in order over a copy of `env`; returns the env."""
    env = dict(env)
    for text in statements:
        kind, first, rest = read_statement(text)
        if kind == "decl":
            env[rest] = np.zeros(length, dtype=C_TYPES[first])
            continue
        if first not in env:
            raise ReadError(f"assignment to unknown name {first!r}")
        value = evaluate(rest, env)
        target = env[first]
        if isinstance(target, np.ndarray):
            out = np.empty_like(target)
            out[:] = value
            env[first] = out
        else:
            env[first] = value
    return env
