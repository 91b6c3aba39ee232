"""Smoke test: every script in ``demos/`` runs to completion.

The demos call the public API end to end (closed forms, quadrature,
sampling, the SVG plot); each runs in a fresh process in a temporary
directory, since ``qutrit_moduli_sweep.py`` writes its SVG into the working
directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import wigner_classicality

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(wigner_classicality.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
