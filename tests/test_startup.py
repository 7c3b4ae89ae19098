"""Start-up: a process loads only the modules its command uses.

Each gate runs in a fresh interpreter, since this test process has long since
imported everything."""

import json
import os
import subprocess
import sys

import pytest

from tests.conftest import PLATFORMS, PROGRAMS, REPO

HEAVY = ("numpy", "hstream.runtime", "hstream.pipeline", "hstream.bench")


def loaded_after(code: str) -> list[str]:
    """Run `code` in a fresh interpreter; the modules loaded afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_hstream_loads_no_submodule_and_not_numpy():
    loaded = loaded_after("import hstream")
    assert "hstream" in loaded
    assert [m for m in loaded if m.startswith("hstream.") or m == "numpy"] == []


@pytest.mark.parametrize("argv", [
    ["check", str(PROGRAMS / "triad.hs.c")],
    ["compile", str(PROGRAMS / "triad.hs.c"), "--pdl", str(PLATFORMS / "disa.pdl")],
    ["loc", str(PROGRAMS)],
], ids=lambda argv: argv[0])
def test_frontend_commands_load_neither_numpy_nor_the_runtime(argv, tmp_path):
    if argv[0] == "compile":
        argv = [*argv, "--out-dir", str(tmp_path)]
    loaded = loaded_after("from hstream import cli\n"
                          f"assert cli.main({argv!r}) == 0")
    assert "hstream.frontend" in loaded
    assert [m for m in HEAVY if m in loaded] == []


def test_every_export_resolves_and_star_import_works():
    loaded_after("""
import hstream
for name in hstream.__all__:
    assert getattr(hstream, name) is not None, name
    assert name in vars(hstream), name
assert hstream.run_pipeline is sys.modules["hstream.pipeline"].run_pipeline
assert hstream.runtime is sys.modules["hstream.runtime"]
namespace = {}
exec("from hstream import *", namespace)
assert {n for n in namespace if n != "__builtins__"} == set(hstream.__all__)
try:
    hstream.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown attribute resolved")
""")


def test_a_patched_export_stays_patched():
    loaded_after("""
import hstream
original = hstream.run_pipeline
hstream.run_pipeline = patched = lambda *a, **k: None
assert hstream.run_pipeline is patched
hstream.run_pipeline = original
assert hstream.run_pipeline is sys.modules["hstream.pipeline"].run_pipeline
""")
