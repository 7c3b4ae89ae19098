"""Semantic checking: clause normalization, scope and type rules, error codes.

The invalid corpus files each carry an `// expect: CODE...` header naming the
exact diagnostic codes they must trigger.
"""

import re

import pytest

from hstream import errors
from hstream.errors import CompileError
from hstream.frontend import compile_source
from hstream.ir import (
    AllDevices,
    AutoSchedule,
    ElementType,
    UniformSchedule,
    VarKind,
)
from tests.conftest import INVALID, PROGRAMS, TRIAD_SOURCE


def kernels_of(src, name="Kernel"):
    return compile_source(src, name).kernels


def codes_of(src):
    with pytest.raises(CompileError) as err:
        compile_source(src)
    return err.value.codes


def test_triad_kernel_spec_fields():
    (kernel,) = kernels_of(TRIAD_SOURCE, "Triad")
    assert kernel.name == "Triad"
    assert [v.name for v in kernel.ins] == ["b", "c", "a", "scalar"]
    assert [v.name for v in kernel.outs] == ["a"]
    assert kernel.ins[3].kind is VarKind.SCALAR
    assert kernel.device == AllDevices()
    assert kernel.scheduling == UniformSchedule(4096)
    assert len(kernel.body) == 1
    assert kernel.body[0].target.name == "a"


def test_repeated_in_clauses_merge_to_same_spec():
    base = """double a[8];
double b[8];
stream<int> c;
#pragma hstream {clauses} out(a)
{{
    a = b;
}}
"""
    merged = kernels_of(base.format(clauses="in(a, b) in(c:int)"))
    single = kernels_of(base.format(clauses="in(a, b, c:int)"))
    assert merged == single


def test_inout_equals_in_plus_out():
    base = """double a[8];
double b[8];
#pragma hstream in(b) {clauses}
{{
    a = a + b;
}}
"""
    via_inout = kernels_of(base.format(clauses="inout(a)"))
    via_pair = kernels_of(base.format(clauses="in(a) out(a)"))
    assert via_inout == via_pair
    (kernel,) = via_inout
    assert [v.name for v in kernel.ins] == ["b", "a"]
    assert [v.name for v in kernel.outs] == ["a"]


def test_defaults_device_all_scheduling_auto():
    src = """double a[8];
#pragma hstream out(a)
{
    a = 1.0;
}
"""
    (kernel,) = kernels_of(src)
    assert kernel.device == AllDevices()
    assert kernel.scheduling == AutoSchedule()


def test_duplicate_refs_collapse():
    src = """double a[8];
double b[8];
#pragma hstream in(b, b) in(b) out(a)
{
    a = b;
}
"""
    (kernel,) = kernels_of(src)
    assert [v.name for v in kernel.ins] == ["b"]


def test_body_reads_and_writes_subsets():
    (kernel,) = kernels_of(TRIAD_SOURCE, "Triad")
    in_names = {v.name for v in kernel.ins}
    out_names = {v.name for v in kernel.outs}
    assert {v.name for v in kernel.body_reads} <= in_names
    assert {v.name for v in kernel.body_writes} <= out_names


def test_int_widening_into_double_allowed():
    src = """int n;
double a[8];
n = 2;
#pragma hstream in(n) out(a)
{
    a = n + 1;
}
"""
    (kernel,) = kernels_of(src)
    assert kernel.scalar_ins[0].element_type is ElementType.INT


def test_multiple_directives_are_numbered():
    src = """double a[8];
double b[8];
#pragma hstream in(b) out(a)
{
    a = b;
}
#pragma hstream in(b) out(a)
{
    a = b + b;
}
"""
    kernels = kernels_of(src, "Unit")
    assert [k.name for k in kernels] == ["Unit_1", "Unit_2"]


def test_local_temporaries_allowed_and_tracked():
    src = """double a[8];
double b[8];
#pragma hstream in(b) out(a)
{
    double t;
    t = b*2.0;
    a = t;
}
"""
    (kernel,) = kernels_of(src)
    assert [v.name for v in kernel.locals_] == ["t"]
    assert len(kernel.body) == 2


def test_errors_sorted_by_position():
    src = """double a[8];
double b[8];
#pragma hstream in(b) out(a) device(0) device(1) scheduling(4) scheduling(8)
{
    a = b + oops;
}
"""
    with pytest.raises(CompileError) as err:
        compile_source(src)
    diags = err.value.diagnostics
    assert [d.code for d in diags] == [errors.DUP_DEVICE, errors.DUP_SCHEDULING,
                                       errors.UNDECLARED]
    positions = [(d.line, d.col) for d in diags]
    assert positions == sorted(positions)


def test_sibling_directives_all_checked():
    src = """double a[8];
double b[8];
#pragma hstream in(b) out(a) device(0) device(1)
{
    a = b;
}
#pragma hstream in(b) out(a) scheduling(2) scheduling(4)
{
    a = b;
}
"""
    assert codes_of(src) == [errors.DUP_DEVICE, errors.DUP_SCHEDULING]


@pytest.mark.parametrize("ref, code", [
    ("zz", errors.UNDECLARED),
    ("q", errors.TYPE_MISMATCH),      # a stream needs its :type
    ("q:int", errors.TYPE_MISMATCH),  # declared double
    ("s:int", errors.TYPE_MISMATCH),  # only streams take a :type
])
def test_inout_reference_is_diagnosed_once(ref, code):
    src = ("double a[8];\ndouble s;\nstream<double> q;\n"
           f"#pragma hstream inout({ref}) out(a)\n{{\n    a = 1.0;\n}}\n")
    with pytest.raises(CompileError) as err:
        compile_source(src)
    assert [(d.line, d.col, d.code) for d in err.value.diagnostics] == [(4, 23, code)]


def test_diagnostic_rendering_format():
    src = "double a[8];\n#pragma hstream out(a) scheduling(1) scheduling(2)\n{\n    a = 1.0;\n}\n"
    with pytest.raises(CompileError) as err:
        compile_source(src)
    rendered = err.value.render("bad.hs.c")
    assert re.match(r"^bad\.hs\.c:2:\d+: error\[DUP_SCHEDULING\]: ", rendered)


# --- corpus ------------------------------------------------------------------

def _expected_codes(path):
    header = path.read_text().splitlines()[0]
    assert header.startswith("// expect:"), f"{path} lacks an expect header"
    return header.split(":", 1)[1].split()


@pytest.mark.parametrize("path", sorted(INVALID.glob("*.hs.c")),
                         ids=lambda p: p.name)
def test_invalid_corpus_exact_codes(path):
    with pytest.raises(CompileError) as err:
        compile_source(path.read_text(), "Bad")
    assert err.value.codes == _expected_codes(path)


def test_invalid_corpus_is_large_enough():
    assert len(list(INVALID.glob("*.hs.c"))) >= 12


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.hs.c")),
                         ids=lambda p: p.name)
def test_valid_corpus_has_no_diagnostics(path):
    result = compile_source(path.read_text(), "Unit")
    assert result.kernels
