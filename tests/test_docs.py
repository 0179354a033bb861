"""Smoke tests for the documentation: every demo runs, the README's
library quickstart executes against the current public API, every name
that API exports resolves, and the package imports numpy but no scipy,
as the README's install section says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dplqg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    out = capsys.readouterr().out
    assert "messages on the wire: 400" in out


def test_public_names_resolve():
    # a name deleted from the package but left in __all__ fails here, not
    # at a user's star import
    assert len(set(dplqg.__all__)) == len(dplqg.__all__)
    missing = [name for name in dplqg.__all__ if not hasattr(dplqg, name)]
    assert not missing
    exec("from dplqg import *", {})


def test_runtime_imports_numpy_only(tmp_path):
    # the package and its CLI run on numpy alone; scipy is a test oracle
    code = ("import sys, dplqg, dplqg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
