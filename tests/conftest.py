"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest

import lecamjd as lj


@pytest.fixture
def run_python():
    """Runs ``python *args`` in a fresh process that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lj.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True)
    return run
