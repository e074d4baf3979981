"""Smoke tests for the public surface: every demo runs and every exported name resolves."""

import os
import pathlib
import subprocess
import sys

import pytest

import epigeo

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_every_exported_name_resolves():
    missing = [name for name in epigeo.__all__ if not hasattr(epigeo, name)]
    assert missing == []
    assert len(set(epigeo.__all__)) == len(epigeo.__all__)


def test_star_import_binds_every_export_and_dir_lists_them():
    # in a new interpreter, where no exported name has been resolved yet
    code = ("import sys, epigeo\n"
            "unlisted = sorted(set(epigeo.__all__) - set(dir(epigeo)))\n"
            "numpy_on_import = 'numpy' in sys.modules\n"
            "namespace = {}\n"
            "exec('from epigeo import *', namespace)\n"
            "unbound = [n for n in epigeo.__all__ if n not in namespace]\n"
            "print(unlisted, numpy_on_import, unbound)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[] False []"
