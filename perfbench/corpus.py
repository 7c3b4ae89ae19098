"""The compile workload's corpus, and the benchmark's own reading of a source.

The corpus, in a fixed order:
- the three demo programs (`demos/programs/*.hs.c`);
- the six benchmark kernels in source form;
- seeded generated programs of 1, 2, 4, 8, 16 and 32 directives;
- the invalid programs of `tests/corpus/invalid/`, each with an
  `// expect: CODE...` header;
- one program per known emit fault (`perfbench/corpus/`).

Generated expressions avoid the two emit faults: the right operand of `+` or
`*` is never a sum or a product of the same precedence, the right operand of
a binary `-` never starts with a negation, and no negation is negated.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAULT_PROGRAMS = ("emit_parens.hs.c", "emit_double_minus.hs.c")

# The six kernels as `hstream.bench` defines them: (name, clauses, body).
KERNEL_SOURCES = (
    ("COPY", "in(b) out(a)", "a = b;"),
    ("SCALE", "in(b, scalar) out(a)", "a = scalar*b;"),
    ("ADD", "in(a, b) out(c)", "c = a + b;"),
    ("TRIAD", "in(b,c,a,scalar) out(a)", "a = b+scalar*c;"),
    ("FILL", "in(scalar) out(a)", "a = scalar;"),
    ("DAXPY", "in(x, scalar) inout(y)", "y = y + scalar*x;"),
)
_KERNEL_DECLS = "".join(f"double {n}[1024];\n" for n in "abcxy") + "double scalar;\n"


@dataclass(frozen=True)
class Program:
    name: str
    text: str
    expect: tuple[str, ...] = ()   # diagnostic codes, for invalid programs
    fault: bool = False            # a known emit fault: counted as failed

    @property
    def unit(self) -> str:
        stem = self.name.split(".")[0]
        return stem[0].upper() + stem[1:]


# --- Reading a source -------------------------------------------------------------

_PRAGMA = re.compile(r"^\s*#\s*pragma\s+hstream\b")
_DECL = re.compile(r"^\s*(int|double)\s+([A-Za-z_]\w*)\s*(\[\s*\d+\s*\])?\s*;")
_STREAM_DECL = re.compile(r"^\s*stream\s*<\s*(int|double)\s*>\s*([A-Za-z_]\w*)\s*;")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n"), text,
                  flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def pragma_lines(text: str) -> int:
    return sum(1 for line in strip_comments(text).splitlines() if _PRAGMA.match(line))


def declarations(text: str) -> dict[str, tuple[str, bool]]:
    """Top-level names: name -> (C type, elementwise)."""
    out: dict[str, tuple[str, bool]] = {}
    depth = 0
    for line in strip_comments(text).splitlines():
        if depth == 0:
            m = _DECL.match(line)
            if m:
                out[m.group(2)] = (m.group(1), m.group(3) is not None)
            m = _STREAM_DECL.match(line)
            if m:
                out[m.group(2)] = (m.group(1), True)
        depth += line.count("{") - line.count("}")
    return out


def scalar_assignments(text: str) -> list[str]:
    """Top-level `name = expr;` statements, in program order."""
    out, depth = [], 0
    for line in strip_comments(text).splitlines():
        stripped = line.strip()
        if depth == 0 and re.match(r"^[A-Za-z_]\w*\s*=", stripped):
            out.append(stripped)
        depth += line.count("{") - line.count("}")
    return out


def directive_bodies(text: str) -> list[list[str]]:
    """The statements of each directive's block, one list per pragma line."""
    lines = strip_comments(text).splitlines()
    bodies, i = [], 0
    while i < len(lines):
        if not _PRAGMA.match(lines[i]):
            i += 1
            continue
        block, depth, i = [], 0, i + 1
        while i < len(lines):
            line = lines[i]
            depth += line.count("{")
            block.append(line.replace("{", " ").replace("}", " "))
            depth -= line.count("}")
            i += 1
            if depth == 0 and "}" in line:
                break
        bodies.append([s.strip() + ";" for s in " ".join(block).split(";") if s.strip()])
    return bodies


# --- Generated programs -----------------------------------------------------------

_NUMBERS = ("0.5", "1.25", "2.0", "3", "0.75")
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tree(rng: random.Random, names: list[str], depth: int):
    """A full expression tree of the given depth, so programs of one seed and
    another are of about one size. The emitter prints it faithfully: the
    right operand of `+` or `*` is never of the same precedence, the right
    operand of a binary `-` never starts with a negation, and only leaves
    are negated."""
    if depth == 0:
        leaf = ("num", rng.choice(_NUMBERS)) if rng.random() < 0.25 \
            else ("var", rng.choice(names))
        return ("neg", leaf) if rng.random() < 0.15 else leaf
    op = rng.choice("+-*/")
    left = _tree(rng, names, depth - 1)
    right = _tree(rng, names, depth - 1)
    if right[0] == "bin" and _PREC[right[1]] == _PREC[op]:
        op = {"+": "-", "*": "/"}.get(op, op)
    if op == "-" and _prints_negated(right):
        op = "+"
    return ("bin", op, left, right)


def _prints_negated(node) -> bool:
    """Whether the node, as the right operand of `-`, prints starting with a
    unary minus (a sum there is parenthesised, so it cannot)."""
    if node[0] == "bin" and _PREC[node[1]] == _PREC["-"]:
        return False
    while node[0] == "bin" and not (node[2][0] == "bin" and _PREC[node[2][1]] < _PREC[node[1]]):
        node = node[2]
    return node[0] == "neg"


def _print(node) -> str:
    """Source text with the parentheses the tree needs."""
    kind = node[0]
    if kind in ("num", "var"):
        return node[1]
    if kind == "neg":   # only leaves are negated
        return f"-{_print(node[1])}"
    _, op, left, right = node
    ltext, rtext = _print(left), _print(right)
    if left[0] == "bin" and _PREC[left[1]] < _PREC[op]:
        ltext = f"({ltext})"
    if right[0] == "bin" and _PREC[right[1]] <= _PREC[op]:
        rtext = f"({rtext})"
    return f"{ltext} {op} {rtext}"


def _names(node, out: set) -> set:
    if node[0] == "var":
        out.add(node[1])
    for child in node[1:]:
        if isinstance(child, tuple):
            _names(child, out)
    return out


def generated_program(seed: int, directives: int) -> Program:
    """A program of `directives` directives over double arrays and scalars."""
    rng = random.Random(seed * 1000 + directives)
    arrays = [f"v{i}" for i in range(6)]
    scalars = ["s0", "s1"]
    lines = [f"double {a}[4096];" for a in arrays] + [f"double {s};" for s in scalars]
    lines += ["", "s0 = 1.5;", "s1 = 0.25;", ""]
    for d in range(directives):
        target = arrays[d % len(arrays)]
        readable = [a for a in arrays if a != target] + scalars
        body, used = [], set()
        if d % 2:
            tree = _tree(rng, readable, 2)
            body += ["double t;", f"t = {_print(tree)};"]
            _names(tree, used)
            readable = readable + ["t"]
        tree = _tree(rng, readable, 3)
        body.append(f"{target} = {_print(tree)};")
        _names(tree, used)
        reads = sorted(used - {"t"})
        clauses = (f"in({', '.join(reads)}) " if reads else "") + f"out({target})"
        lines.append(f"#pragma hstream {clauses} device(*) scheduling(4096)")
        lines += ["{", *(f"    {s}" for s in body), "}", ""]
    return Program(f"gen{directives:02d}.hs.c", "\n".join(lines))


# --- The corpus -------------------------------------------------------------------

def _expect(text: str) -> tuple[str, ...]:
    header = text.splitlines()[0]
    if not header.startswith("// expect:"):
        raise ValueError("invalid program lacks an '// expect:' header")
    return tuple(header.split(":", 1)[1].split())


def build_corpus(root: Path, seed: int) -> list[Program]:
    progs = [Program(p.name, p.read_text(encoding="utf-8"))
             for p in sorted((root / "demos" / "programs").glob("*.hs.c"))]
    for name, clauses, body in KERNEL_SOURCES:
        text = (f"{_KERNEL_DECLS}#pragma hstream {clauses} device(*) "
                f"scheduling(4096)\n{{\n    {body}\n}}\n")
        progs.append(Program(f"kernel_{name.lower()}.hs.c", text))
    progs += [generated_program(seed, n) for n in (1, 2, 4, 8, 16, 32)]
    for path in sorted((root / "tests" / "corpus" / "invalid").glob("*.hs.c")):
        text = path.read_text(encoding="utf-8")
        progs.append(Program(path.name, text, expect=_expect(text)))
    for name in FAULT_PROGRAMS:
        progs.append(Program(name, (HERE / "corpus" / name).read_text(encoding="utf-8"),
                             fault=True))
    return progs
