"""Compare two reports written by ``python -m benchmarks.e2e --out``.

    python -m benchmarks.e2e.compare A.json B.json

One row per workload and end-to-end metric: both medians with their
quartiles and sample counts, the ratio B/A (A is the base), and a
verdict taken from the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread (q3 - q1, as a share
  of its median) is wider than the bound, so nothing can be concluded;
* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound;
* ``same`` — otherwise.

Reports made with ``--runs 1`` carry one value per metric, so their
spread reads as 0; use ``--runs 5`` or more on both sides for a verdict
that means something.  Exits non-zero on any ``worse`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summarise(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict for B against base A, and the ratio of medians B/A."""
    a_q1, a_med, a_q3 = summarise(a)
    b_q1, b_med, b_q3 = summarise(b)
    ratio = b_med / a_med
    if max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound:
        return "unresolved", ratio
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "same", ratio


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload, a_row in a["workloads"].items():
        b_row = b["workloads"].get(workload)
        if b_row is None or "end_to_end" not in a_row or "end_to_end" not in b_row:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = a_row["end_to_end"][name]["values"]
            b_values = b_row["end_to_end"][name]["values"]
            label, ratio = verdict(a_values, b_values, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": summarise(a_values), "a_n": len(a_values),
                "b": summarise(b_values), "b_n": len(b_values),
                "ratio": ratio, "bound": metric["bound"], "verdict": label,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':26s} {'metric':16s} {'A median [q1, q3] n':>40s} "
          f"{'B median [q1, q3] n':>40s} {'B/A':>7s} {'bound':>6s}  verdict")
    for row in rows:
        sides = []
        for side in ("a", "b"):
            q1, median, q3 = row[side]
            sides.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] {row[side + '_n']}")
        print(f"{row['workload']:26s} {row['metric']:16s} {sides[0]:>40s} {sides[1]:>40s} "
              f"{row['ratio']:7.3f} {row['bound']:6.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
