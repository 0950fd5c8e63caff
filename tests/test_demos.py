"""Every script in demos/ runs to completion and prints its report."""

import contextlib
import io
import runpy
from pathlib import Path


def test_every_demo_runs():
    demos = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
    assert len(demos) == 7
    for path in demos:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        assert out.getvalue().strip(), path.name
