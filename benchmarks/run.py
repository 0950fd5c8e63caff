"""The fss benchmark.

    python3 benchmarks/run.py --workload scan-static --seed 0 --seconds 40 --trace 0

Workloads (see README.md in this directory for the reasoning):

* ``scan-static``  bundled scenarios whose evolutions all use a
  time-independent Liouvillian, plus a reduced two-axis fig2ef scan;
* ``pulse-driven`` Ramsey and echo sequences, a reduced fig4abc chevron and
  one two-tone four-level evolution with a truly time-dependent Hamiltonian;
* ``fit``          parameter recovery: the master-equation Rabi fit, the CPT
  round trip, every library model, ``fss fit`` and two closed-form scenarios.

Load model: a closed loop with one client.  Each pass over a workload's items
runs in a fresh child process (``child.py``) whose environment has the thread
variables removed, so it gets the defaults a user gets.  Passes repeat while
the next is expected to end within ``--seconds``; two more children only set
up, so set-up time has several samples.  ``wall_s`` is the sum over items of
each item's median time across the run's untraced passes, which keeps one
slow item in one pass from moving it; check time is not included.
``--trace 1`` alternates traced and untraced passes, traced first, and
reports the per-layer metrics instead of the end-to-end ones; the untraced
passes give ``proc.cpu_s`` and the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (item runs), and ``metrics``.  The lines before
it give the environment, each metric's median and sample count, and every
failed item by name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_run"
WORKLOADS = ("scan-static", "pulse-driven", "fit")
THREAD_VARS = ("FSS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ONLY_RUNS = 2
# every child must end in time for the whole run to stay within 180 s
RUN_DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def child_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in THREAD_VARS if k in env}
    return env, removed


def run_child(argv: list[str], env: dict, deadline: float) -> float:
    """Run child.py with ``argv``; returns the monotonic spawn time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a child could start")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), *argv], env=env,
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {argv[0]} exceeded the time budget") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"child {argv[0]} exited with {proc.returncode}: " + " | ".join(tail))
    return spawned


def prepare(workload: str, seed: int, work: Path, env: dict, deadline: float,
            tiny: bool = False) -> dict:
    run_child(["prepare", "--workload", workload, "--seed", str(seed), "--work", str(work)]
              + (["--tiny"] if tiny else []), env, deadline)
    return json.loads((work / "environment.json").read_text(encoding="utf-8"))


def one_pass(work: Path, label: str, env: dict, deadline: float, extra=()) -> dict:
    result_path = work / f"{label}.json"
    spawned = run_child(["pass", "--work", str(work), "--result", str(result_path), *extra],
                        env, deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_done"] - spawned
    return result


def tail_percentile(n: int):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))


def item_medians(passes: list) -> dict[str, float]:
    """Each item's median seconds across ``passes``."""
    per_item = {}
    for r in passes:
        for item in r["items"]:
            per_item.setdefault(item["name"], []).append(item["seconds"])
    return {name: statistics.median(v) for name, v in per_item.items()}


def pass_wall(passes: list) -> float:
    """Wall time of one pass: the sum of the item medians."""
    return sum(item_medians(passes).values())


def describe(name: str, unit: str, values: list[float]) -> str:
    p = tail_percentile(len(values))
    tail = "none (fewer than 11 samples)" if p is None else \
        f"{statistics.quantiles(values, n=100)[p - 1]:.6g} {unit}"
    return (f"{name}: median {statistics.median(values):.6g} {unit}, p-tail {tail}, "
            f"n={len(values)}, samples {' '.join(f'{v:.4g}' for v in values)}")


def measure(args, env: dict, work: Path, deadline: float) -> tuple[list, list, list]:
    """Run passes until another would overrun ``--seconds``.

    Returns the untraced passes, the traced passes and the set-up-only runs."""
    extra = ["--reference-dir", args.reference_dir]
    plain, traced, setups = [], [], []
    for k in range(SETUP_ONLY_RUNS if not args.tiny else 1):
        setups.append(one_pass(work, f"setup{k}", env, deadline, ["--setup-only", *extra]))
    start = time.monotonic()
    durations = []
    while True:
        use_trace = args.trace == 1 and len(durations) % 2 == 0
        t0 = time.monotonic()
        res = one_pass(work, f"pass{len(durations)}", env, deadline,
                       (["--trace"] if use_trace else []) + extra)
        durations.append(time.monotonic() - t0)
        (traced if use_trace else plain).append(res)
        if args.trace == 1 and not plain:
            continue
        if time.monotonic() - start + statistics.median(durations) > args.seconds:
            break
    return plain, traced, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fss benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run only the cheapest items (the smoke test)")
    parser.add_argument("--reference-dir", default=str(BENCH_DIR / "reference"))
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fss" / "__init__.py").is_file():
        print(f"no fss sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    env, removed = child_env()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = prepare(args.workload, args.seed, work, env, deadline, args.tiny)
        plain, traced, setups = measure(args, env, work, deadline)
        if traced:
            spans = sorted(work.glob("*.spans.npz"))
            keep = WORK_ROOT / "trace"
            keep.mkdir(exist_ok=True)
            shutil.copyfile(spans[-1], keep / f"{args.workload}-seed{args.seed}.spans.npz")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update({
        "commit": source_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "thread_vars_removed": removed,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    })
    print("environment: " + json.dumps(record, sort_keys=True))

    runs = plain + traced
    attempted = sum(len(r["items"]) for r in runs)
    failures = {}
    for r in runs:
        for item in r["items"]:
            for err in item["errors"]:
                failures[(item["name"], err)] = failures.get((item["name"], err), 0) + 1
    failed = sum(1 for r in runs for item in r["items"] if item["errors"])
    for (name, err), times in failures.items():
        print(f"FAILED {name}: {err} (in {times} of {len(runs)} passes)")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} failed of {attempted} item runs)")
    print("item median seconds (untraced): "
          + ", ".join(f"{k} {v:.3f}" for k, v in item_medians(plain).items()))

    if args.trace == 0:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in setups + plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {}
        for name, unit in END_TO_END:
            print(describe(name, unit, samples[name]))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        # the reported pass wall is the sum of item medians, not the pass median
        metrics["wall_s"]["value"] = pass_wall(plain)
        print(f"wall_s: sum of item medians {metrics['wall_s']['value']:.6g} s (reported)")
    else:
        metrics = traced_metrics(plain, traced)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(plain: list, traced: list) -> dict:
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import METRICS

    untraced_wall = pass_wall(plain)
    traced_wall = pass_wall(traced)
    absent = sorted({name for r in traced for name in r["absent"]})
    print(f"trace: {len(traced)} traced and {len(plain)} untraced passes, "
          f"{traced[-1]['spans']} spans in the last; absent: {', '.join(absent) or 'none'}")
    # self times add up over threads, so shares are of the total self time
    last = traced[-1]["layer_self_s"]
    total = sum(last.values()) or 1.0
    print(f"layer self-time shares ({total:.4g} thread-seconds in the last traced pass, "
          f"traced wall {traced_wall:.4g} s): "
          + ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(last.items())))
    counts = [name for name, unit in METRICS if unit == "count"]
    if len(traced) > 1:
        differ = [n for n in counts if len({r["trace"][n] for r in traced}) > 1]
        print(f"trace counts repeat exactly over {len(traced)} traced passes: "
              + ("yes" if not differ else "no, differing: " + ", ".join(differ)))
    values = {
        "proc.cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    metrics = {}
    for name, unit in METRICS:
        value = values[name] if name in values else \
            statistics.median(r["trace"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    return metrics


def source_commit() -> str:
    """The git commit when run from a clone; otherwise a digest of src/fss."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and (ROOT / ".git").exists():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fss").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
