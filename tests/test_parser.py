"""Parser shape: clause parsing, directive structure, round-trip stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstream import errors
from hstream.codegen import gen_cuda, gen_leo, gen_openmp
from hstream.errors import CompileError
from hstream.frontend import compile_source, format_program, lex, parse
from hstream.frontend.ast import (
    Assignment,
    Declaration,
    DeviceClause,
    DirectiveNode,
    InClause,
    OutClause,
    Program,
    SchedulingClause,
    VarRef,
)
from hstream.ir import (
    AllDevices,
    AutoSchedule,
    BinOp,
    DeviceIds,
    ElementType,
    Neg,
    Num,
    PerDeviceSchedule,
    UniformSchedule,
    Var,
    VarKind,
)
from tests.conftest import PROGRAMS, TRIAD_SOURCE


def only_directive(program):
    (directive,) = program.directives
    return directive


def test_triad_directive_clauses():
    directive = only_directive(parse(lex(TRIAD_SOURCE)))
    in_clause, out_clause, device, scheduling = directive.clauses
    assert isinstance(in_clause, InClause)
    assert [r.name for r in in_clause.refs] == ["b", "c", "a", "scalar"]
    assert isinstance(out_clause, OutClause)
    assert [r.name for r in out_clause.refs] == ["a"]
    assert isinstance(device, DeviceClause) and isinstance(device.selector, AllDevices)
    assert isinstance(scheduling, SchedulingClause)
    assert scheduling.spec == UniformSchedule(4096)


def test_repeated_in_clauses_parse_separately():
    src = """double a[4];
double b[4];
stream<int> c;
#pragma hstream in(a, b) in(c:int) out(a)
{
    a = b;
}
"""
    directive = only_directive(parse(lex(src)))
    ins = [c for c in directive.clauses if isinstance(c, InClause)]
    assert len(ins) == 2
    assert ins[1].refs == (VarRef("c", ElementType.INT),)


def test_two_scheduling_clauses_are_syntactically_fine():
    src = """double a[4];
double b[4];
#pragma hstream in(b) out(a) scheduling(8) scheduling(16)
{
    a = b;
}
"""
    directive = only_directive(parse(lex(src)))
    specs = [c.spec for c in directive.clauses if isinstance(c, SchedulingClause)]
    assert specs == [UniformSchedule(8), UniformSchedule(16)]


def test_device_id_list_and_per_device_scheduling():
    src = """double a[4];
double b[4];
#pragma hstream in(b) out(a) device(0, 2) scheduling(0:1000, 2:5000)
{
    a = b;
}
"""
    directive = only_directive(parse(lex(src)))
    device = next(c for c in directive.clauses if isinstance(c, DeviceClause))
    assert device.selector == DeviceIds((0, 2))
    sched = next(c for c in directive.clauses if isinstance(c, SchedulingClause))
    assert sched.spec == PerDeviceSchedule(((0, 1000), (2, 5000)))
    assert sched.spec.as_dict() == {0: 1000, 2: 5000}


def test_scheduling_auto_case_insensitive():
    for token in ("AUTO", "auto"):
        src = f"""double a[4];
#pragma hstream out(a) scheduling({token})
{{
    a = 1.0;
}}
"""
        directive = only_directive(parse(lex(src)))
        sched = next(c for c in directive.clauses if isinstance(c, SchedulingClause))
        assert sched.spec == AutoSchedule()


def test_declarations_all_shapes():
    program = parse(lex("int i;\ndouble d;\nint ia[8];\nstream<double> s;\n"))
    decls = program.declarations
    assert [(d.name, d.kind, d.element_type) for d in decls] == [
        ("i", VarKind.SCALAR, ElementType.INT),
        ("d", VarKind.SCALAR, ElementType.DOUBLE),
        ("ia", VarKind.ARRAY, ElementType.INT),
        ("s", VarKind.STREAM, ElementType.DOUBLE),
    ]
    assert decls[2].array_size == 8


def test_body_on_pragma_line_rejected():
    with pytest.raises(CompileError) as err:
        parse(lex("double a[4];\n#pragma hstream out(a) { a = 1.0; }\n"))
    assert err.value.codes == [errors.SYNTAX]
    assert "line after the pragma" in err.value.diagnostics[0].message


def test_empty_body_rejected():
    with pytest.raises(CompileError, match="at least one assignment"):
        parse(lex("double a[4];\n#pragma hstream out(a)\n{\n}\n"))


def test_unclosed_body_rejected():
    with pytest.raises(CompileError, match="unclosed directive body"):
        parse(lex("double a[4];\n#pragma hstream out(a)\n{\n    a = 1.0;\n"))


def test_malformed_clause_argument_position():
    with pytest.raises(CompileError) as err:
        parse(lex("double a[4];\n#pragma hstream device(x)\n{\n    a = 1.0;\n}\n"))
    (diag,) = err.value.diagnostics
    assert diag.code == errors.SYNTAX
    assert diag.line == 2


def test_unknown_clause_rejected():
    with pytest.raises(CompileError, match="expected clause"):
        parse(lex("double a[4];\n#pragma hstream shared(a)\n{\n    a = 1.0;\n}\n"))


# Pinned printer cases; tests/test_emitted_c.py also compiles each with gcc.
PRECEDENCE_CASES = {
    "mixed": ("1.0 + 2.0*3.0 - (4.0 - 5.0)/2.0", "1.0+2.0*3.0-(4.0-5.0)/2.0"),
    "add-sub": ("b + (c - d)", "b+(c-d)"),
    "mul-div": ("b * (c / d)", "b*(c/d)"),
    "add-add": ("b + (c + d)", "b+(c+d)"),
    "minus-neg": ("b - -c", "b-(-c)"),
    "neg-neg": ("-(-b)", "-(-b)"),
    "minus-neg-div": ("t - -1.5/a", "t-(-1.5/a)"),
    "tiny-float": ("0.00001", "1.0e-05"),
}


@pytest.mark.parametrize("source,printed", PRECEDENCE_CASES.values(),
                         ids=PRECEDENCE_CASES.keys())
def test_expression_precedence_and_parens(source, printed):
    program = parse(lex(f"double x;\nx = {source};\n"))
    text = format_program(program)
    assert f"x = {printed};" in text
    assert parse(lex(text)) == program


_NAMES = ("a", "b", "s")

_exprs = st.recursive(
    st.one_of(
        st.integers(0, 2**31 - 1).map(lambda v: Num(v, ElementType.INT)),
        st.floats(min_value=0.0, allow_infinity=False).map(
            lambda v: Num(v, ElementType.DOUBLE)),
        st.sampled_from(_NAMES).map(Var),
    ),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_exprs)
def test_printed_expressions_reparse_and_never_print_a_decrement(expr):
    program = Program((Assignment("a", expr),))
    text = format_program(program)
    assert parse(lex(text)) == program
    source = ("double a[4];\ndouble b[4];\ndouble s;\n"
              f"#pragma hstream in(a, b, s) out(a)\n{{\n    {text}}}\n")
    kernel = compile_source(source).kernels[0]
    assert kernel.body[0].expr == expr
    for gen in (gen_openmp, gen_cuda, gen_leo):
        assert "--" not in gen(kernel).text


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.hs.c")),
                         ids=lambda p: p.name)
def test_roundtrip_shipped_programs(path):
    program = parse(lex(path.read_text()))
    printed = format_program(program)
    assert parse(lex(printed)) == program
    assert format_program(parse(lex(printed))) == printed


def test_roundtrip_synthetic_directive():
    src = """int n;
double a[16];
double b[16];
stream<int> zs;
n = 3;
#pragma hstream in(a, zs:int) inout(b) device(1, 0) scheduling(0:8, 1:16)
{
    double t;
    t = a*2.0;
    b = t - -1.5/a;
}
"""
    program = parse(lex(src))
    assert parse(lex(format_program(program))) == program


def test_program_items_preserve_order():
    src = "double a[4];\na = 0.0;\n"
    with pytest.raises(CompileError):
        # parses fine, fails later in semantics; here only shape matters
        from hstream.frontend import compile_source
        compile_source(src)
    program = parse(lex(src))
    assert isinstance(program.items[0], Declaration)
    assert isinstance(program.items[1], Assignment)


def test_directive_node_positions():
    program = parse(lex(TRIAD_SOURCE))
    directive = only_directive(program)
    assert isinstance(directive, DirectiveNode)
    assert directive.line == 8
