"""Alternating base/change pairs of the fss benchmark.

    python3 tools/bench_pairs.py --workload fit --seed 0 --pairs 10 --base HEAD~1

Exports two trees with ``git archive`` into a new temporary directory: the
``--base`` revision (default HEAD) and the working tree (what ``git add -A``
would stage, built in a throwaway index, so the real index is left alone).
It stops with an error when both are the same tree, as they are once a
change is committed and ``--base`` still names it.  It then runs
``benchmarks/run.py`` in each tree for BENCHMARK.json's ``run_seconds``, one
tree after the other, for ``--pairs`` pairs; the base runs first in odd
pairs and the change in even pairs, so neither always runs first.  For each
end-to-end metric of BENCHMARK.json it prints both medians, the base's
quartiles and the number of pairs in which the change was better; then, for
each item, the medians of its per-run item medians (``run.py``'s ``item
median seconds`` line) and the pairs in which the change was faster; then
the failed item runs of each tree.  It exits with status 1, naming the
tree, when any run of either tree reported wrong outputs (``correct``
false) or failed item runs, since a faster wrong program is no speedup.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITEM_MEDIANS = "item median seconds (untraced): "


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True).stdout


def working_tree() -> str:
    """A git tree of the working tree as ``git add -A`` would stage it."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env).decode().strip()


def export(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        # the extraction filters arrived in 3.10.12 and 3.11.4
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of ``benchmarks/run.py``'s output, parsed, with its item
    medians as ``items``: {item name: seconds}."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmarks/run.py failed in {tree}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    medians = next(line for line in lines if line.startswith(ITEM_MEDIANS))[len(ITEM_MEDIANS):]
    items = (entry.rsplit(" ", 1) for entry in medians.split(", ") if entry)
    return {**json.loads(lines[-1]), "items": {name: float(value) for name, value in items}}


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: medians, the base's quartiles and the change's
    wins, then one line per item: medians and wins, for runs given as
    :func:`run_benchmark` results in pair order."""
    lines = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else b * 3
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        lines.append(f"{name}: base median {statistics.median(b):.4g} {metric['unit']} "
                     f"(quartiles {q1:.4g}-{q3:.4g}), change median {statistics.median(c):.4g} "
                     f"{metric['unit']}, change better in {wins}/{len(b)} pairs")
    for name in (n for n in base[0]["items"] if n in change[0]["items"]):
        b = [run["items"][name] for run in base]
        c = [run["items"][name] for run in change]
        wins = sum(y < x for x, y in zip(b, c))
        lines.append(f"item {name}: base median {statistics.median(b):.4g} s, change median "
                     f"{statistics.median(c):.4g} s, change faster in {wins}/{len(b)} pairs")
    return lines


def failures(runs: dict[str, list[dict]]) -> list[str]:
    """One line per tree, for the trees with a run that reported wrong
    outputs or failed item runs, given :func:`run_benchmark` results by tree."""
    return [f"{label}: {sum(not r['correct'] for r in results)} of {len(results)} runs reported wrong outputs "
            f"and {sum(r['failed'] for r in results)} item runs failed"
            for label, results in runs.items() if any(not r["correct"] or r["failed"] for r in results)]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="alternating base/change benchmark pairs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="git revision of the base")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    revs = {"base": git("rev-parse", f"{args.base}^{{tree}}").decode().strip(), "change": working_tree()}
    if revs["base"] == revs["change"]:
        parser.error(f"base {args.base} and the working tree are the same tree; "
                     "pass --base <parent revision>")
    scratch = Path(tempfile.mkdtemp(prefix="fss-pairs-"))
    # equal-length paths: peak RSS moves by about 0.2 MB with the length of the checkout path
    trees = {"base": scratch / "old", "change": scratch / "new"}
    try:
        for label, rev in revs.items():
            export(rev, trees[label])
            print(f"{label}: tree {rev} -> {trees[label]}", flush=True)
        runs = {"base": [], "change": []}
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for label in order:
                runs[label].append(run_benchmark(trees[label], args.workload, args.seed,
                                                 spec["run_seconds"]))
            print(f"pair {k + 1}: " + ", ".join(
                f"{label} " + " ".join(f"{m['name']} {runs[label][-1]['metrics'][m['name']]['value']:.4g}"
                                       for m in spec["end_to_end"]) for label in order), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in summarize(spec["end_to_end"], runs["base"], runs["change"]):
        print(line)
    for label, results in runs.items():
        print(f"{label}: {sum(r['failed'] for r in results)} failed of "
              f"{sum(r['attempted'] for r in results)} item runs")
    bad = failures(runs)
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
