"""Command-line behavior: subcommands, exit codes, diagnostics routing."""

import errno
import os
import stat

import numpy as np
import pytest

from hstream.cli import main
from hstream.frontend import compile_source
from hstream.pipeline import FileSink, GeneratedSource
from hstream.runtime import ExecutableKernel, evaluate_sequential
from tests.conftest import (
    DISA_PDL,
    GOLDEN,
    INVALID,
    PROGRAMS,
    UNSERVABLE_CLAUSES,
    triad_with_clauses,
)

TRIAD = PROGRAMS / "triad.hs.c"
STREAM = PROGRAMS / "stream.hs.c"

MIXED = """int n[64];
double b[64];
int m[64];
double a[64];
double scale;

scale = 0.5;

#pragma hstream in(n, b, scale) out(m, a) device(*) scheduling(1000)
{
    m = n * 3;
    a = b * scale + n;
}
"""


@pytest.fixture()
def pdl_file(tmp_path):
    path = tmp_path / "disa.pdl"
    path.write_text(DISA_PDL)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_happy_path_emits_four_files(tmp_path, pdl_file, capsys):
    """Each emitted file equals its golden byte for byte."""
    out_dir = tmp_path / "gen"
    code, out, err = run_cli(capsys, "compile", TRIAD, "--pdl", pdl_file,
                             "--out-dir", out_dir)
    assert code == 0
    for name in ("triad_omp.c", "triad_cuda.cu", "triad_leo.c", "triad_driver.c"):
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        assert name in out


def test_compile_subset_of_targets(tmp_path, pdl_file, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run_cli(capsys, "compile", TRIAD, "--pdl", pdl_file,
                           "--out-dir", out_dir, "--targets", "openmp")
    assert code == 0
    assert (out_dir / "triad_omp.c").exists()
    assert not (out_dir / "triad_cuda.cu").exists()


def test_compile_error_exit_1_with_diagnostics(tmp_path, pdl_file, capsys):
    bad = INVALID / "dup_scheduling.hs.c"
    code, out, err = run_cli(capsys, "compile", bad, "--pdl", pdl_file,
                             "--out-dir", tmp_path)
    assert code == 1
    assert "error[DUP_SCHEDULING]" in err
    assert str(bad) in err


def test_check_reports_duplicate_scheduling(capsys):
    code, out, err = run_cli(capsys, "check", INVALID / "dup_scheduling.hs.c")
    assert code == 1
    assert "error[DUP_SCHEDULING]" in err
    assert out == ""


def test_check_valid_program(capsys):
    code, out, err = run_cli(capsys, "check", STREAM)
    assert code == 0
    assert "ok (8 directive(s))" in out
    assert err == ""


def test_check_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "check", "no_such_file.hs.c")
    assert code == 2


def test_unknown_flag_exit_1(capsys):
    code, _, err = run_cli(capsys, "check", STREAM, "--frobnicate")
    assert code == 1
    assert "frobnicate" in err


def test_unknown_subcommand_exit_1(capsys):
    code, _, err = run_cli(capsys, "transmogrify")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("compile", "--version"),
    ("run", "--version"),
    ("bench", "--version"),
    ("check", "--version"),
    ("loc", "--version"),
])
def test_version_exits_zero_everywhere(argv, capsys):
    assert main(list(argv)) == 0
    assert "hstreamc" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("compile", "--help"),
    ("run", "--help"),
    ("bench", "--help"),
    ("check", "--help"),
    ("loc", "--help"),
])
def test_help_exits_zero_everywhere(argv, capsys):
    assert main(list(argv)) == 0


def test_loc_reports_stream_benchmark(capsys):
    code, out, _ = run_cli(capsys, "loc", STREAM)
    assert code == 0
    assert "hstream=8" in out


def test_loc_directory_totals(capsys):
    code, out, _ = run_cli(capsys, "loc", PROGRAMS)
    assert code == 0
    assert "TOTAL:" in out


def test_run_generated_to_discard(pdl_file, capsys):
    code, out, _ = run_cli(capsys, "run", TRIAD, "--pdl", pdl_file,
                           "--input", "gen:1", "--output", "discard",
                           "--batch-mb", "0.5")
    assert code == 0
    # a paced run: every figure it prints is the cost model's
    assert " s modelled, " in out and "MB/s modelled" in out
    assert all(line.endswith(" s modelled") for line in out.splitlines()[1:])


@pytest.mark.parametrize("clauses, message", UNSERVABLE_CLAUSES,
                         ids=[c for c, _ in UNSERVABLE_CLAUSES])
def test_compile_and_run_reject_an_unservable_directive_alike(
        tmp_path, pdl_file, capsys, clauses, message):
    """compile, run and run --batch-mb bind the directive to the platform
    before anything starts, report the same single line, and write nothing."""
    program = tmp_path / "triad.hs.c"
    program.write_text(triad_with_clauses(clauses))
    out_dir = tmp_path / "gen"
    earlier = tmp_path / "out.bin"
    earlier.write_bytes(b"an earlier run's output")
    run = ("run", program, "--pdl", pdl_file, "--input", "gen:1",
           "--output", earlier)
    for argv in [("compile", program, "--pdl", pdl_file, "--out-dir", out_dir),
                 run, (*run, "--batch-mb", "0.5")]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv[0]
    assert not out_dir.exists()
    assert earlier.read_bytes() == b"an earlier run's output"


def test_run_file_to_file_round_trip(tmp_path, pdl_file, capsys):
    n = 1024
    rng = np.random.default_rng(0)
    b = rng.random(n)
    c = rng.random(n)
    stream = tmp_path / "in.bin"
    np.stack([b, c], axis=1).ravel().astype("<f8").tofile(stream)
    out = tmp_path / "out.bin"
    code, _, _ = run_cli(capsys, "run", TRIAD, "--pdl", pdl_file,
                         "--input", stream, "--output", out)
    assert code == 0
    got = np.fromfile(out, dtype="<f8")
    assert got.tobytes() == (b + 3.0 * c).tobytes()


def test_run_mixed_input_types_from_generator(tmp_path, pdl_file, capsys):
    program = tmp_path / "mixed.hs.c"
    program.write_text(MIXED)
    out = tmp_path / "out.bin"
    code, _, err = run_cli(capsys, "run", program, "--pdl", pdl_file,
                           "--input", "gen:0.1", "--output", out, "--seed", 3)
    assert code == 0, err
    kernel = ExecutableKernel.from_kernel_spec(
        compile_source(MIXED, "Mixed").kernels[0], {"scale": 0.5})
    total = int(0.1 * 2**20) // 8  # the widest element is a double
    inputs = GeneratedSource(kernel.input_arrays, total, seed=3,
                             element_types=kernel.array_types).read_all()
    expected = evaluate_sequential(kernel, inputs)
    got = np.fromfile(out, dtype=[("m", "<i4"), ("a", "<f8")])
    assert got["m"].tobytes() == expected["m"].tobytes()
    assert got["a"].tobytes() == expected["a"].tobytes()


def test_run_rejects_stream_file_of_mixed_input_types(tmp_path, pdl_file,
                                                      capsys):
    program = tmp_path / "mixed.hs.c"
    program.write_text(MIXED)
    stream = tmp_path / "in.bin"
    stream.write_bytes(b"\x00" * 24)
    code, _, err = run_cli(capsys, "run", program, "--pdl", pdl_file,
                           "--input", stream, "--output", tmp_path / "out.bin")
    assert code == 1
    assert "one element type" in err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_out_of_memory_exits_2(tmp_path, pdl_file, capsys, monkeypatch,
                               command):
    # a stand-in for a size too large to allocate: the generator raises as
    # numpy would, without allocating anything
    def exhausted(self, max_elements):
        raise MemoryError("Unable to allocate 954. TiB")

    monkeypatch.setattr(GeneratedSource, "read", exhausted)
    args = {"run": ("run", TRIAD, "--input", "gen:1", "--output", "discard"),
            "bench": ("bench", "--out", tmp_path / "r.csv", "--plan",
                      "kernels=COPY;streams_mb=0.25;chunks_mb=0.05;"
                      "configs=CPU;repeats=1")}[command]
    code, _, err = run_cli(capsys, *args, "--pdl", pdl_file)
    assert code == 2
    assert err == "error: out of memory: Unable to allocate 954. TiB\n"
    assert not (tmp_path / "r.csv").exists()


def test_run_output_write_failure_exits_2(tmp_path, pdl_file, capsys,
                                         monkeypatch):
    # a stand-in for a full disk, as writing to /dev/full gives
    def full(self, batch):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(FileSink, "write", full)
    code, _, err = run_cli(capsys, "run", TRIAD, "--pdl", pdl_file,
                           "--input", "gen:1", "--output", tmp_path / "out.bin")
    assert code == 2
    assert err == ("i/o error: pipeline failed in flight: [Errno "
                   f"{errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


def test_run_rejects_multi_directive_program(pdl_file, capsys):
    code, _, err = run_cli(capsys, "run", STREAM, "--pdl", pdl_file,
                           "--input", "gen:1", "--output", "discard")
    assert code == 1
    assert "exactly one directive" in err


@pytest.mark.parametrize("value,shown", [("inf", "inf"), ("nan", "nan"),
                                         ("0", "0.0"), ("-3", "-3.0")])
@pytest.mark.parametrize("size,what", [
    (["--input", "gen:1", "--batch-mb", "{}"], "--batch-mb"),
    (["--input", "gen:{}"], "--input gen:<MB>"),
], ids=["batch-mb", "gen"])
def test_run_rejects_size_that_is_not_positive_and_finite(tmp_path, pdl_file,
                                                          capsys, size, what,
                                                          value, shown):
    out = tmp_path / "out.bin"
    code, _, err = run_cli(capsys, "run", TRIAD, "--pdl", pdl_file,
                           "--output", out, *(a.format(value) for a in size))
    assert code == 1
    assert err == (f"error: {what} must be a positive, finite number of MB; "
                   f"got {shown}\n")
    assert not out.exists()


def test_bench_inline_plan_writes_csv(tmp_path, pdl_file, capsys):
    out = tmp_path / "r.csv"
    code, _, err = run_cli(
        capsys, "bench", "--pdl", pdl_file, "--out", out,
        "--plan", "kernels=TRIAD;streams_mb=0.5;chunks_mb=0.05;"
                  "configs=CPU,CPU+4GPUs;repeats=2")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("kernel,stream_mb,chunk_mb,device_config")
    assert len(lines) == 3  # header + 2 cells
    assert any("CPU+4GPUs" in ln for ln in lines)


def test_bench_raw_rows(tmp_path, pdl_file, capsys):
    out = tmp_path / "r.csv"
    raw = tmp_path / "raw.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--pdl", pdl_file, "--out", out, "--raw-out", raw,
        "--plan", "kernels=COPY;streams_mb=0.25;chunks_mb=0.05;"
                  "configs=CPU;repeats=2")
    assert code == 0
    assert len(raw.read_text().strip().splitlines()) == 3  # header + 2 rows


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_written_files_follow_the_umask(tmp_path, pdl_file, capsys, umask, mode):
    out_dir = tmp_path / "gen"
    out, raw = tmp_path / "r.csv", tmp_path / "raw.csv"
    old = os.umask(umask)
    try:
        assert run_cli(capsys, "compile", TRIAD, "--pdl", pdl_file,
                       "--out-dir", out_dir)[0] == 0
        assert run_cli(capsys, "bench", "--pdl", pdl_file, "--out", out,
                       "--raw-out", raw, "--plan",
                       "kernels=COPY;streams_mb=0.25;chunks_mb=0.05;"
                       "configs=CPU;repeats=1")[0] == 0
    finally:
        os.umask(old)
    for path in (*out_dir.iterdir(), out, raw):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_bench_unknown_plan_key(tmp_path, pdl_file, capsys):
    code, _, err = run_cli(capsys, "bench", "--pdl", pdl_file,
                           "--out", tmp_path / "r.csv",
                           "--plan", "warp=9")
    assert code == 1
    assert "unknown plan key" in err


@pytest.mark.parametrize("entry", [
    "kernels=nope", "configs=CPU,7GPUs", "configs=CPU,0GPUs", "streams_mb=-1",
    "chunks_mb=0", "batch_mb=-3"])
def test_bench_rejects_a_bad_plan_before_any_cell(tmp_path, pdl_file, capsys,
                                                  entry):
    code, _, err = run_cli(capsys, "bench", "--pdl", pdl_file,
                           "--out", tmp_path / "r.csv", "--plan",
                           "kernels=COPY;streams_mb=0.25;chunks_mb=0.05;"
                           f"configs=CPU;repeats=1;{entry}")
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert not (tmp_path / "r.csv").exists()


def test_missing_pdl_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compile", TRIAD, "--pdl",
                           tmp_path / "none.pdl", "--out-dir", tmp_path)
    assert code == 2


def test_scalar_environment_zero_defaults():
    from hstream.cli import _scalar_environment
    from hstream.frontend import lex, parse

    program = parse(lex("int k;\ndouble s;\ndouble t;\nt = s + 1.0;\n"))
    assert _scalar_environment(program) == {"k": 0, "s": 0.0, "t": 1.0}
