"""The package imports numpy and nothing of scipy: scipy costs most of a
fresh process's start-up, and the tests use it only as an oracle.  Nor does
it import numpy.polynomial (about 4 ms), which the Gauss-Hermite nodes of
fss.ensemble no longer need."""

import os
import subprocess
import sys
from pathlib import Path

import fss


def _modules_after_import(prefix: str) -> list[str]:
    """The modules under ``prefix`` that a fresh ``import fss, fss.cli, fss.fitting`` loads."""
    src = str(Path(fss.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; import fss, fss.cli, fss.fitting; "
            f"print(' '.join(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_importing_the_package_loads_no_scipy():
    assert _modules_after_import("scipy") == []


def test_importing_the_package_loads_no_numpy_polynomial():
    assert _modules_after_import("numpy.polynomial") == []
