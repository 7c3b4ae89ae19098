"""Every narrative demo runs to completion."""

import os
import subprocess
import sys

import pytest

from tests.conftest import DEMOS, REPO


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
