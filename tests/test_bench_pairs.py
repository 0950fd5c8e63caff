import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(correct=True, failed=0):
    # the parts of a parsed benchmarks/run.py result that the decision reads
    metrics = {name: {"value": 1.0} for name in ("wall_s", "setup_s", "peak_rss_mb")}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics, "items": {"fig4b": 0.02}}


def test_clean_runs_pass():
    assert bench_pairs.failures({"base": [_run(), _run()], "change": [_run(), _run()]}) == []


def test_wrong_outputs_name_their_tree():
    (line,) = bench_pairs.failures({"base": [_run(), _run()], "change": [_run(), _run(correct=False, failed=1)]})
    assert line.startswith("change: 1 of 2 runs reported wrong outputs and 1 item runs failed")


def test_failed_item_runs_fail_even_when_marked_correct():
    lines = bench_pairs.failures({"base": [_run(failed=2)], "change": [_run(correct=False)]})
    assert [line.split(":")[0] for line in lines] == ["base", "change"]


def test_main_exits_nonzero_on_a_failing_run(monkeypatch, tmp_path, capsys):
    runs = iter([_run(), _run(correct=False, failed=3)])
    monkeypatch.setattr(bench_pairs, "working_tree", lambda: "change-tree")
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kwargs: b"base-tree\n")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_benchmark", lambda *args: next(runs))
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "pairs"))
    assert bench_pairs.main(["--workload", "fit", "--pairs", "1"]) == 1
    assert "error: change: 1 of 1 runs reported wrong outputs" in capsys.readouterr().err
