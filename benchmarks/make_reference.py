"""Write the seed-0 reference outputs of every benchmark item.

    python3 benchmarks/make_reference.py [workload ...]

Run it only on purpose, at a commit whose outputs are known to be right, and
say in CHANGES.md why the references changed.  Each workload's items run
once, in a fresh child process as in a benchmark pass, and their products
go to ``reference/<workload>.json``.
"""

import shutil
import sys
import time

import run


def main(argv) -> int:
    env, _ = run.child_env()
    (run.BENCH_DIR / "reference").mkdir(exist_ok=True)
    for workload in argv or run.WORKLOADS:
        work = run.WORK_ROOT / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        deadline = time.monotonic() + 600.0
        try:
            run.prepare(workload, 0, work, env, deadline)
            target = run.BENCH_DIR / "reference" / f"{workload}.json"
            run.run_child(["pass", "--work", str(work), "--result", str(work / "ref.json"),
                           "--write-reference", str(target)], env, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
