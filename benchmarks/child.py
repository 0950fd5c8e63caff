"""One fresh process of the fss benchmark: prepares a workload's inputs, or
runs one pass over its items.

    python3 benchmarks/child.py prepare --workload W --seed N --work DIR [--tiny]
    python3 benchmarks/child.py pass --work DIR --result FILE [--trace] [--setup-only]
        [--reference-dir DIR] [--write-reference FILE]

``fss`` is imported before anything else that loads numpy, so a thread
policy the package sets at import takes effect as it would for a user.  A
pass records the monotonic time at which set-up (import plus loading and
parsing every input) finished; the parent subtracts its spawn time from it.
"""

import argparse
import json
import os
import resource
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fss  # noqa: E402  (first import that loads numpy)
import fss.cli  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

def item_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def environment() -> dict:
    """Library versions, BLAS build and the thread defaults a user gets."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = "unknown"
    threads_default = getattr(fss.cli, "_threads", None)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fss": fss.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_default": (threads_default(argparse.Namespace(threads=None))
                            if threads_default else "absent"),
    }


def prepare(args) -> None:
    work = Path(args.work)
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    items = workloads.items_for(args.workload, args.tiny)
    inputs = {it.name: it.prepare(args.seed, work, item_rng(args.seed, it.name)) for it in items}
    manifest = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny, "inputs": inputs}
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (work / "environment.json").write_text(json.dumps(environment()), encoding="utf-8")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(args) -> None:
    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    items = workloads.items_for(manifest["workload"], manifest["tiny"])
    loaded, load_errors = {}, {}
    for it in items:
        try:
            loaded[it.name] = it.load(manifest["inputs"][it.name])
        except Exception as exc:  # rejected input fails the item, not the pass
            load_errors[it.name] = f"loading inputs: {type(exc).__name__}: {exc}"
    setup_done = time.monotonic()
    result = {"setup_done": setup_done}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    out_root = work / "out" / Path(args.result).stem
    cpu0 = _cpu_s()
    outcomes = []
    try:
        for it in items:
            if it.name in load_errors:
                outcomes.append((it, 0.0, None, load_errors[it.name]))
                continue
            t0 = time.perf_counter()
            try:
                products, error = it.run(loaded[it.name], out_root / it.name), None
            except Exception as exc:  # an item that raises counts as failed
                products, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((it, time.perf_counter() - t0, products, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu_s = _cpu_s() - cpu0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if manifest["seed"] == 0 and args.write_reference is None:
        ref_path = Path(args.reference_dir) / f"{manifest['workload']}.json"
        reference = (json.loads(ref_path.read_text(encoding="utf-8"))
                     if ref_path.is_file() else {})
    records, written = [], {}
    for it, seconds, products, error in outcomes:
        errors = [error] if error else []
        if products is not None:
            if reference is not None and it.name not in reference:
                errors.append("no reference output for this item")
            try:
                errors += workloads.check_item(
                    it, products, loaded[it.name],
                    None if reference is None else reference.get(it.name))
            except (KeyError, IndexError, ValueError) as exc:  # products of another shape
                errors.append(f"checking outputs: {type(exc).__name__}: {exc}")
            written[it.name] = workloads.to_jsonable(products)
        records.append({"name": it.name, "seconds": seconds, "errors": errors})

    if args.write_reference:
        Path(args.write_reference).write_text(json.dumps(written, indent=1, sort_keys=True) + "\n",
                                              encoding="utf-8")
    result.update({
        "wall_s": sum(r["seconds"] for r in records),
        "items": records,
        "cpu_s": cpu_s,
        "peak_rss_mb": maxrss_mb,
    })
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["layer_self_s"] = tracer.layer_self_times()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.start)
        tracer.dump(work / f"{Path(args.result).stem}.spans.npz")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--tiny", action="store_true")
    p = sub.add_parser("pass")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference-dir", default=str(workloads.BENCH_DIR / "reference"))
    p.add_argument("--write-reference", default=None)
    args = parser.parse_args()
    if args.mode == "prepare":
        prepare(args)
    else:
        run_pass(args)


if __name__ == "__main__":
    main()
