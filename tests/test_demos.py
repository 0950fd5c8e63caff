"""Every script in demos/ runs to completion and prints its report, and so
does the library quick start of README.md."""

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


def test_readme_quick_start_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert out.getvalue().strip()
