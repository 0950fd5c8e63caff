"""Largest output deviation of the working tree from a git revision.

    python3 tools/compare_outputs.py --base HEAD~1

Exports two trees into a new temporary directory, as ``tools/bench_pairs.py``
does: the ``--base`` revision (default HEAD) and the working tree (what
``git add -A`` would stage).  In each tree a child process, with that tree's
``src`` first on its path, runs ``scenario.run_scenario(..., seed=0)`` on
every ``src/fss/scenarios/*.scenario`` and ``benchmarks/scenarios/*.scenario``
and saves each product's signal and extras to one ``.npz`` file.  It then
prints the largest |change - base| of each product, over its signal and
extras, and the largest overall, and exits with status 1 when a product or
one of its arrays is missing from either tree, or when the shapes of an array
differ.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import export, git, working_tree

SCENARIO_DIRS = ("src/fss/scenarios", "benchmarks/scenarios")


def run_scenarios(tree: Path) -> dict[str, np.ndarray]:
    """Every product's signal and extras at seed 0, keyed
    ``scenario::product::signal`` and ``scenario::product::<extra>``, from
    the ``fss`` on the path."""
    from fss import scenario

    arrays = {}
    for path in sorted(p for d in SCENARIO_DIRS for p in (tree / d).glob("*.scenario")):
        for res in scenario.run_scenario(scenario.load_scenario(path), seed=0):
            fields = {"signal": res.signal, **res.extras}
            for name, value in fields.items():
                key = f"{path.stem}::{res.name}::{name}"
                if key in arrays:
                    raise SystemExit(f"two outputs named {key}")
                arrays[key] = np.asarray(value)
    return arrays


def compare(base: dict[str, np.ndarray], change: dict[str, np.ndarray]) -> tuple[list[str], bool]:
    """One line per product with its largest |change - base|, then the
    overall largest, for outputs keyed as :func:`run_scenarios` keys them;
    and whether every array is in both and of the same shape."""
    lines, ok, products = [], True, {}
    for key in sorted(base.keys() | change.keys()):
        product, field = key.rsplit("::", 1)
        if key not in base or key not in change:
            lines.append(f"error: {field} of {product} is missing from the {'base' if key in change else 'change'}")
            ok = False
        elif base[key].shape != change[key].shape:
            lines.append(f"error: {field} of {product} has shape {change[key].shape}, "
                         f"against {base[key].shape} in the base")
            ok = False
        else:
            with np.errstate(invalid="ignore"):
                dev = float(np.max(np.abs(change[key].astype(float) - base[key].astype(float)), initial=0.0))
            products[product] = max(products.get(product, 0.0), dev)
    lines += [f"{product}: largest |change - base| {dev:.3g}" for product, dev in products.items()]
    lines.append(f"overall: largest |change - base| {max(products.values(), default=0.0):.3g} "
                 f"over {len(products)} products")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="largest output deviation from a git revision")
    parser.add_argument("--base", default="HEAD", help="git revision of the base")
    parser.add_argument("--child", metavar="NPZ", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        np.savez(args.child, **run_scenarios(Path.cwd()))
        return 0

    revs = {"base": git("rev-parse", f"{args.base}^{{tree}}").decode().strip(), "change": working_tree()}
    scratch = Path(tempfile.mkdtemp(prefix="fss-compare-"))
    outputs = {}
    try:
        for label, rev in revs.items():
            tree, out = scratch / label, scratch / f"{label}.npz"
            export(rev, tree)
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(out)], cwd=tree,
                           env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True)
            with np.load(out) as saved:
                outputs[label] = dict(saved)
            print(f"{label}: tree {rev}, {len(outputs[label])} arrays", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines, ok = compare(outputs["base"], outputs["change"])
    for line in lines:
        print(line, file=sys.stderr if line.startswith("error:") else sys.stdout)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
