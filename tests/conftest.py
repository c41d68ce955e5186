import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def python_child():
    """Run ``python -c code *args`` in a fresh interpreter that imports ffhyper from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("FFHYPER_CACHE_DIR", None)

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    return run
