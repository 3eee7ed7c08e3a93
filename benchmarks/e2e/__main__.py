"""Run the whole end-to-end benchmark: every workload, then its traced run.

    python -m benchmarks.e2e [--seed N] [--workload NAME ...] [--runs K]
                             [--seconds S] [--trace {0,1}] [--smoke] [--out PATH]

Each measurement is one ``run.py`` invocation in a fresh child process
(so ``peak_rss_mb`` is per workload).  A workload's end-to-end pass is
``--runs`` such invocations on seeds ``seed, seed+1, ...`` (the values
``compare`` takes medians and quartiles of); its traced pass is one more
at ``seed``.  ``--trace`` restricts the suite to one of the two passes.
Exits non-zero if any invocation fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, trace: int, seconds: float | None, smoke: bool) -> dict:
    """One child invocation; returns its detail file (result included)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {child.returncode}")
    mode = "trace" if trace else "e2e"
    detail = json.loads(Path(f".benchmarks/e2e/{mode}-{workload}.json").read_text())
    detail.pop("spans", None)
    return detail


def top_layers(per_layer: dict[str, dict], n: int = 3) -> list[list]:
    """The ``n`` layers with the most self time, with their share of the traced wall."""
    wall = per_layer["harness.traced_wall_s"]["value"]
    self_times = {name.removesuffix(".self_s").removesuffix(".wait_s"): entry["value"]
                  for name, entry in per_layer.items()
                  if name.endswith((".self_s", ".wait_s"))}
    ranked = sorted(self_times.items(), key=lambda item: -item[1])[:n]
    return [[layer, round(seconds, 4), round(seconds / wall, 3)] for layer, seconds in ranked]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all six")
    parser.add_argument("--runs", type=int, default=1,
                        help="end-to-end invocations per workload, on consecutive seeds")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="only the end-to-end (0) or only the traced (1) pass")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes divided by 50 and the minimum number of repeats")
    parser.add_argument("--out", type=Path, default=None, help="write the report here as JSON")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.smoke and args.seconds is None else args.seconds

    report: dict = {"seed": args.seed, "runs": args.runs, "smoke": args.smoke, "workloads": {}}
    all_correct = True
    for workload in args.workload or names:
        row: dict = {"correct": True, "attempted": 0, "failed": 0}
        details = []
        if args.trace != 1:
            details = [run_once(workload, args.seed + k, 0, seconds, args.smoke)
                       for k in range(args.runs)]
            row["end_to_end"] = {
                m["name"]: {"unit": m["unit"],
                            "values": [d["result"]["metrics"][m["name"]]["value"] for d in details]}
                for m in spec["end_to_end"]
            }
        if args.trace != 0:
            traced = run_once(workload, args.seed, 1, seconds, args.smoke)
            details.append(traced)
            row["per_layer"] = traced["result"]["metrics"]
            row["top_layers"] = top_layers(row["per_layer"])
        first = details[0]  # always at --seed
        row["input_digest"], row["output_digest"] = first["input_digest"], first["output_digest"]
        for detail in details:
            row["correct"] &= detail["result"]["correct"]
            row["attempted"] += detail["result"]["attempted"]
            row["failed"] += detail["result"]["failed"]
            row.setdefault("problems", []).extend(detail["problems"])
        all_correct &= row["correct"]
        report["workloads"][workload] = row

        print(f"== {workload}: {'correct' if row['correct'] else 'INCORRECT'}, "
              f"{row['failed']} failed of {row['attempted']} attempted")
        for name, entry in row.get("end_to_end", {}).items():
            values = ", ".join(f"{v:.6g}" for v in entry["values"])
            print(f"   {name:18s} {values} {entry['unit']}")
        for layer, self_s, share in row.get("top_layers", []):
            print(f"   top layer {layer:28s} {self_s:9.4f} s  {share:6.1%} of traced wall")
        for problem in row["problems"]:
            print(f"   problem: {problem}")

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
