"""The package imports numpy and nothing of scipy: scipy costs most of a
fresh process's start-up, and the tests use it only as an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import fss


def test_importing_the_package_loads_no_scipy():
    src = str(Path(fss.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; import fss, fss.cli, fss.fitting; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
