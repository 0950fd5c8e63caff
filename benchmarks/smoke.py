"""Smoke test of the benchmark itself, at tiny sizes.

    python3 benchmarks/smoke.py

Runs every workload on its cheapest items with tracing off and on, and checks
that each metric named in BENCHMARK.json is printed with its unit and that
the seed-0 outputs pass.  Then corrupts one reference value in a copy of the
references and checks that the affected item counts as failed, by name.
Exits non-zero on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd[1:])} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), out.stdout


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = bench(workload, trace)
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["attempted"] >= 1, f"{workload} trace={trace}: result keys")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: seed-0 outputs match the references")
            expect("failed_frac: 0 " in text, f"{workload} trace={trace}: failed_frac printed")
            for metric in SPEC[key]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{workload} trace={trace}: {metric['name']} in {metric['unit']}")
                shown = [line for line in text.splitlines()
                         if line.startswith(f"{metric['name']}: ")]
                unit_text = f" {metric['unit']}, p-tail" if trace == 0 else f" {metric['unit']}"
                expect(bool(shown) and (unit_text in shown[0] if trace == 0
                                        else shown[0].endswith(unit_text)),
                       f"{workload} trace={trace}: {metric['name']} printed with its unit")

    # a corrupted reference must fail the item it belongs to
    refs = ROOT / ".bench_run" / "smoke-reference"
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "reference", refs)
    fit_ref = json.loads((refs / "fit.json").read_text(encoding="utf-8"))
    fit_ref["library_linear"]["params"]["slope"][0] *= 1.01
    (refs / "fit.json").write_text(json.dumps(fit_ref), encoding="utf-8")
    try:
        result, text = bench("fit", 0, "--reference-dir", str(refs))
    finally:
        shutil.rmtree(refs, ignore_errors=True)
    expect(not result["correct"] and result["failed"] >= 1,
           "corrupted reference: result reports a failure")
    expect("FAILED library_linear: params.slope" in text,
           "corrupted reference: the failed item is printed by name")
    expect(f"failed_frac: {result['failed'] / result['attempted']:.6g} " in text,
           "corrupted reference: failed_frac counts the miss")
    print("smoke test passed")


if __name__ == "__main__":
    main()
