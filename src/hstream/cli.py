"""hstreamc: compile, run, bench, check, and loc subcommands.

Exit codes: 0 success, 1 user or compile error (including unknown flags),
2 I/O or environment error. Diagnostics go to stderr; data goes to files or
stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from hstream import __version__
from hstream.errors import (
    CompileError,
    ConfigurationError,
    PipelineError,
    ResolveError,
    VerificationError,
)

# Each command imports the modules it uses, so that compile, check and loc
# start without numpy, the runtime or the pipeline.


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1, not 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hstreamc",
                     description="Heterogeneous stream compiler and simulator")
    parser.add_argument("--version", action="version",
                        version=f"hstreamc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="emit target sources and a driver")
    p_compile.add_argument("source", help="annotated program (.hs.c)")
    p_compile.add_argument("--pdl", required=True, help="platform description file")
    p_compile.add_argument("--out-dir", default=".", help="output directory")
    p_compile.add_argument("--targets", default="openmp,cuda,leo",
                           help="comma list from openmp,cuda,leo")

    p_run = sub.add_parser("run", help="stream data through one directive")
    p_run.add_argument("source", help="annotated program with one directive")
    p_run.add_argument("--pdl", required=True)
    p_run.add_argument("--input", required=True,
                       help="stream file, or gen:N for N MB of seeded data per input")
    p_run.add_argument("--output", required=True, help="output file or 'discard'")
    p_run.add_argument("--batch-mb", type=float, default=None,
                       help="batch size in MB (default: chunk x units x 4)")
    p_run.add_argument("--seed", type=int, default=42)

    p_bench = sub.add_parser("bench", help="run the throughput sweep")
    p_bench.add_argument("--pdl", required=True)
    p_bench.add_argument("--plan", default="desk",
                         help="desk | paper | 'key=v,...;key=v,...' with keys "
                              "kernels, streams_mb, chunks_mb, configs, repeats, "
                              "batch_mb, seed (lists comma-separated)")
    p_bench.add_argument("--out", required=True, help="summary CSV path")
    p_bench.add_argument("--raw-out", default=None, help="optional raw rows CSV")

    p_check = sub.add_parser("check", help="frontend diagnostics only")
    p_check.add_argument("source")

    p_loc = sub.add_parser("loc", help="count total and pragma lines of code")
    p_loc.add_argument("corpus", help="a .hs.c file or a directory of them")

    for p in (p_compile, p_run, p_bench, p_check, p_loc):
        p.add_argument("--version", action="version",
                       version=f"hstreamc {__version__}")
    return parser


def _write_atomic(path: Path, text: str) -> None:
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        # mkstemp creates the file 0600; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_compile(args) -> int:
    from hstream.codegen import TargetKind, gen_driver, generate
    from hstream.frontend import unit_name_for
    from hstream.pdl import bind, parse_pdl_file

    try:
        targets = tuple(TargetKind(t.strip()) for t in args.targets.split(",") if t.strip())
    except ValueError as exc:
        raise UsageError(f"unknown target in --targets: {exc}")
    if not targets:
        raise UsageError("--targets must name at least one target")
    result = _compile(args.source)
    platform = parse_pdl_file(args.pdl)
    if not result.kernels:
        print(f"{args.source}: no directives to compile", file=sys.stderr)
        return 1
    for kernel in result.kernels:  # rejects what `run` rejects, before any write
        bind(platform, kernel.device, kernel.scheduling, 0, 8)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = unit_name_for(args.source).lower()
    written = []
    for target in targets:
        units = [generate(k, target) for k in result.kernels]
        path = out_dir / f"{stem}{target.file_suffix}"
        _write_atomic(path, "\n\n".join(u.text for u in units) + "\n")
        written.append(path)
    driver = gen_driver(result.kernels, platform, targets=targets)
    driver_path = out_dir / f"{stem}_driver.c"
    _write_atomic(driver_path, driver.text + "\n")
    written.append(driver_path)
    for path in written:
        print(path)
    return 0


def _compile(source_path: str):
    from hstream.frontend import compile_file

    try:
        return compile_file(source_path)
    except CompileError as exc:
        print(exc.render(source_path), file=sys.stderr)
        raise SystemExit(1)


def _scalar_environment(program) -> dict:
    """Constant-fold top-level scalar assignments, in program order.

    Unassigned scalars start at zero, like static storage."""
    from hstream.frontend.ast import Assignment
    from hstream.ir import ElementType, VarKind
    from hstream.runtime import compile_expr

    env: dict = {
        d.name: 0 if d.element_type is ElementType.INT else 0.0
        for d in program.declarations if d.kind is VarKind.SCALAR
    }
    for item in program.items:
        if isinstance(item, Assignment):
            env[item.target] = compile_expr(item.expr)(env)
    return env


def cmd_run(args) -> int:
    from hstream.bench import elements_in
    from hstream.pdl import bind, parse_pdl_file
    from hstream.pipeline import (
        DiscardSink,
        FileSink,
        FileSource,
        GeneratedSource,
        run_pipeline,
    )
    from hstream.runtime import ExecutableKernel

    result = _compile(args.source)
    if len(result.kernels) != 1:
        print(f"{args.source}: run needs exactly one directive, found "
              f"{len(result.kernels)}", file=sys.stderr)
        return 1
    spec = result.kernels[0]
    platform = parse_pdl_file(args.pdl)
    bind(platform, spec.device, spec.scheduling, 0, 8)  # before opening --output
    kernel = ExecutableKernel.from_kernel_spec(
        spec, _scalar_environment(result.program))
    batch_elements = None if args.batch_mb is None else \
        elements_in(args.batch_mb, kernel.max_element_size, "--batch-mb")

    if args.input.startswith("gen:"):
        try:
            mb = float(args.input[4:])
        except ValueError:
            raise UsageError(f"cannot parse '{args.input}' (expected gen:<MB>)")
        total = elements_in(mb, kernel.max_element_size, "--input gen:<MB>")
        source = GeneratedSource(kernel.input_arrays, total, seed=args.seed,
                                 element_types=kernel.array_types)
    else:
        if not kernel.input_arrays:
            raise UsageError("this kernel reads no stream inputs; use --input gen:N")
        in_types = {kernel.array_types[n] for n in kernel.input_arrays}
        if len(in_types) > 1:
            raise UsageError(
                f"stream files hold one element type, but the inputs of "
                f"'{kernel.name}' are {', '.join(sorted(t.value for t in in_types))}; "
                f"use --input gen:N")
        source = FileSource(args.input, kernel.input_arrays, in_types.pop())

    sink = DiscardSink() if args.output == "discard" \
        else FileSink(args.output, kernel.output_arrays)

    try:
        stats, _ = run_pipeline(source, kernel, platform, spec.device,
                                spec.scheduling, batch_elements, sink,
                                pace=True)
    finally:
        for closable in (source, sink):
            close = getattr(closable, "close", None)
            if close:
                close()

    print(f"kernel {kernel.name}: {stats.total_elements} elements in "
          f"{stats.wall_time:.3f} s modelled, {stats.bytes_moved / 2**20:.1f} MB "
          f"moved, {stats.throughput_mb_s:.1f} MB/s modelled")
    for pu_id in sorted(stats.per_pu):
        pu = stats.per_pu[pu_id]
        print(f"  pu {pu_id}: {pu.chunks_claimed} chunks, "
              f"{pu.elements_processed} elements, busy {pu.busy_time:.3f} s modelled")
    return 0


def _parse_plan(text: str):
    from hstream.bench import ExperimentPlan, desk_plan, paper_plan

    if text == "desk":
        return desk_plan()
    if text == "paper":
        return paper_plan()
    base = desk_plan()
    fields = {
        "kernels": base.kernels,
        "streams_mb": base.stream_sizes_mb,
        "chunks_mb": base.chunk_sizes_mb,
        "configs": base.device_configs,
        "repeats": base.repeats,
        "batch_mb": base.batch_mb,
        "seed": base.seed,
    }
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad plan entry '{part}' (expected key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in fields:
            raise UsageError(f"unknown plan key '{key}' "
                             f"(have {sorted(fields)})")
        if key in ("repeats", "seed"):
            fields[key] = int(value)
        elif key == "batch_mb":
            fields[key] = float(value)
        elif key == "kernels" or key == "configs":
            fields[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            fields[key] = tuple(float(v) for v in value.split(",") if v.strip())
    return ExperimentPlan(
        kernels=tuple(k.upper() for k in fields["kernels"]),
        stream_sizes_mb=fields["streams_mb"],
        chunk_sizes_mb=fields["chunks_mb"],
        device_configs=fields["configs"],
        repeats=fields["repeats"],
        seed=fields["seed"],
        batch_mb=fields["batch_mb"],
    )


def cmd_bench(args) -> int:
    from hstream.bench import run_experiment, summarize
    from hstream.pdl import parse_pdl_file

    platform = parse_pdl_file(args.pdl)
    plan = _parse_plan(args.plan)
    done = [0]
    total = plan.cells * plan.repeats

    def progress(row):
        done[0] += 1
        print(f"[{done[0]}/{total}] {row.kernel} stream={row.stream_mb}MB "
              f"chunk={row.chunk_mb}MB {row.device_config} "
              f"rep={row.repeat_index}: {row.throughput_mb_s:.1f} MB/s",
              file=sys.stderr)

    rows = run_experiment(plan, platform, progress=progress)
    _write_atomic(Path(args.out), summarize(rows))
    if args.raw_out:
        lines = ["kernel,stream_mb,chunk_mb,device_config,repeat_index,"
                 "throughput_mb_s,verified"]
        lines += [f"{r.kernel},{r.stream_mb},{r.chunk_mb},{r.device_config},"
                  f"{r.repeat_index},{r.throughput_mb_s:.3f},{r.verified}"
                  for r in rows]
        _write_atomic(Path(args.raw_out), "\n".join(lines) + "\n")
    print(args.out)
    return 0


def cmd_check(args) -> int:
    result = _compile(args.source)
    print(f"{args.source}: ok ({len(result.kernels)} directive(s))")
    return 0


def cmd_loc(args) -> int:
    from hstream.frontend import count_pragma_loc

    counts = count_pragma_loc(args.corpus)
    if not counts:
        print(f"{args.corpus}: no .hs.c files found", file=sys.stderr)
        return 1
    total = [0, 0]
    for path, (loc, pragmas) in counts.items():
        print(f"{path}: total={loc} hstream={pragmas}")
        total[0] += loc
        total[1] += pragmas
    if len(counts) > 1:
        print(f"TOTAL: total={total[0]} hstream={total[1]}")
    return 0


_COMMANDS = {
    "compile": cmd_compile,
    "run": cmd_run,
    "bench": cmd_bench,
    "check": cmd_check,
    "loc": cmd_loc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except CompileError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    except PipelineError as exc:
        # a stage that failed reading or writing a file is an I/O error
        if isinstance(exc.__cause__, OSError):
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ResolveError, ConfigurationError, VerificationError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else
              "error: out of memory", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
