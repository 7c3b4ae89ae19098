#!/usr/bin/env python3
"""From annotated source to three target fragments.

Walks the TRIAD program through every compiler stage: tokens, the parsed
directive, the checked kernel, and the generated host-parallel, GPU, and
offload sources plus the driver that wires them to the runtime scheduler.
"""

from pathlib import Path

from hstream.codegen import gen_cuda, gen_driver, gen_leo, gen_openmp
from hstream.frontend import compile_file, count_file_loc, lex
from hstream.pdl import parse_pdl_file

HERE = Path(__file__).resolve().parent
TRIAD = HERE / "programs" / "triad.hs.c"
PDL = HERE / "platforms" / "disa.pdl"


def banner(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def main():
    source = TRIAD.read_text()
    banner(f"Input: {TRIAD.name}")
    print(source, end="")

    banner("Lexing the directive body (comments and whitespace vanish)")
    for token in lex("a = b+scalar*c;"):
        print(f"  {token.kind.name:8s} {token.lexeme!r}")

    result = compile_file(TRIAD)
    (kernel,) = result.kernels
    banner("Checked kernel")
    print(f"  name        {kernel.name}")
    print(f"  ins         {[v.name for v in kernel.ins]}")
    print(f"  outs        {[v.name for v in kernel.outs]}")
    print(f"  device      {kernel.device}")
    print(f"  scheduling  {kernel.scheduling}")

    for title, generator in [("Host CPUs (parallel loop)", gen_openmp),
                             ("GPUs (device kernel)", gen_cuda),
                             ("Coprocessor (offload region)", gen_leo)]:
        unit = generator(kernel)
        banner(f"{title} -> {unit.function_name}")
        print(unit.text)

    platform = parse_pdl_file(PDL)
    driver = gen_driver(result.kernels, platform)
    banner("Driver (registration + launch, GPU staging with explicit copies)")
    print(driver.text)

    banner("Why this matters: annotation cost vs. generated code")
    total, pragmas = count_file_loc(HERE / "programs" / "stream.hs.c")
    generated = sum(len(g(k).text.splitlines())
                    for k in compile_file(HERE / "programs" / "stream.hs.c").kernels
                    for g in (gen_openmp, gen_cuda, gen_leo))
    print(f"  six-kernel benchmark source: {total} lines, only {pragmas} of them pragmas")
    print(f"  generated target fragments alone: {generated} lines "
          f"(before the driver)")


if __name__ == "__main__":
    main()
