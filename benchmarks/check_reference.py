"""CI gate: the engine workloads agree with the schedule replay.

    python benchmarks/check_reference.py [--seed N]

Drives ``engine_rows``, ``engine_columnar`` and
``engine_columnar_observed`` of the end-to-end harness at smoke size,
over the prefix their own ``check()`` compares, with the engine's
decision log on; replays the log with :func:`repro.reference.replay` on
a fresh copy of the workload's network; and exits non-zero unless the
outputs per stream (in order), the virtual clock and the step count
agree.  ``benchmarks.e2e.workloads`` is imported, never changed: this
is the seam a reference gate inside the harness can point at.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = ("engine_rows", "engine_columnar", "engine_columnar_observed")


def rows_of(outputs) -> dict[str, list[tuple]]:
    return {
        name: [(tup.values, tup.timestamp) for tup in tuples]
        for name, tuples in outputs.items()
    }


def disagreements(name: str, seed: int) -> list[str]:
    """Where one smoke-size workload and the replay of its log differ."""
    from benchmarks.e2e.workloads import PREFIX, WORKLOADS as REGISTRY
    from repro.reference import replay

    workload = REGISTRY[name](seed, smoke=True)
    workload.setup()
    n = min(workload.sized(PREFIX), workload.n_inputs)
    engine = workload.engine_for(**workload.measured_flags())
    engine.decision_log = []
    workload.drive(engine, n, 1, None)
    result = replay(workload.network(), engine.decision_log)
    problems = []
    if rows_of(engine.outputs) != rows_of(result.outputs):
        problems.append("outputs per stream differ")
    if engine.clock != result.clock:
        problems.append(f"clock {engine.clock!r}, replay {result.clock!r}")
    if engine.steps != result.steps:
        problems.append(f"steps {engine.steps}, replay {result.steps}")
    print(f"{name}: {len(engine.decision_log)} log entries, clock {engine.clock!r}, "
          f"steps {engine.steps}: {'; '.join(problems) or 'agree'}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    failed = [name for name in WORKLOADS if disagreements(name, seed)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
