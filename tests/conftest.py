"""Shared fixtures: repository paths, a reference platform, compiled kernels,
and slow stage doubles for pipeline timing tests."""

import time
from pathlib import Path

import pytest

from hstream.frontend import compile_source
from hstream.pdl import parse_pdl
from hstream.pipeline import MemorySink
from hstream.runtime import ExecutableKernel

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"
PROGRAMS = DEMOS / "programs"
PLATFORMS = DEMOS / "platforms"
GOLDEN = Path(__file__).resolve().parent / "golden"
INVALID = Path(__file__).resolve().parent / "corpus" / "invalid"

TRIAD_SOURCE = """\
double a[1048576];
double b[1048576];
double c[1048576];
double scalar;

scalar = 3.0;

#pragma hstream in(b,c,a,scalar) out(a) device(*) scheduling(4096)
{
    a = b+scalar*c;
}
"""

DISA_PDL = """\
<platform name="DISA">
  <pu id="0" type="cpu" cores="20" threads="40" cache_mb="27.5" frequency_ghz="2.4" memory_gb="768"/>
  <pu id="1" type="gpu" cores="1792" frequency_ghz="1.48" memory_gb="8"/>
  <pu id="2" type="gpu" cores="1792" frequency_ghz="1.48" memory_gb="8"/>
  <pu id="3" type="gpu" cores="1792" frequency_ghz="1.48" memory_gb="8"/>
  <pu id="4" type="gpu" cores="1792" frequency_ghz="1.48" memory_gb="8"/>
</platform>
"""

# Directive clauses DISA (unit ids 0-4) cannot serve, each with the one error
# line every command that binds the directive to the platform reports.
UNSERVABLE_CLAUSES = [
    ("device(9) scheduling(64)",
     "unknown device id 9 (platform 'DISA' has ids [0, 1, 2, 3, 4])"),
    ("device(1,1) scheduling(64)", "device id 1 listed more than once"),
    ("device(*) scheduling(0:64)",
     "per-device scheduling does not list engaged pu 1"),
    ("device(1) scheduling(2:64)",
     "per-device scheduling does not list engaged pu 1"),
    ("device(1) scheduling(1:64, 2:64)",
     "per-device scheduling lists pu 2, which the directive does not engage"),
]


def triad_with_clauses(clauses: str) -> str:
    """TRIAD_SOURCE with its device and scheduling clauses replaced."""
    return TRIAD_SOURCE.replace("device(*) scheduling(4096)", clauses)


@pytest.fixture(scope="session")
def disa():
    return parse_pdl(DISA_PDL)


@pytest.fixture(scope="session")
def triad_spec():
    return compile_source(TRIAD_SOURCE, "Triad").kernels[0]


@pytest.fixture()
def triad_kernel(triad_spec):
    return ExecutableKernel.from_kernel_spec(triad_spec, {"scalar": 3.0})


class SlowKernel(ExecutableKernel):
    """Sleeps `delay` seconds before each evaluation, so a batch evaluated as
    one chunk costs the processing stage that much more."""

    delay = 0.0

    def eval_into(self, arrays, length):
        time.sleep(self.delay)
        super().eval_into(arrays, length)


class SlowSink(MemorySink):
    """A MemorySink whose every write first sleeps `delay` seconds."""

    def __init__(self, delay):
        super().__init__()
        self.delay = delay

    def write(self, batch):
        time.sleep(self.delay)
        super().write(batch)
