"""CI gate: a scheduling step is never paid to learn "nothing queued",
and an arrival that is already due pays no call of its own.

    python benchmarks/check_step_cost.py [--seed N]

Four checks on the end-to-end harness, all counts (nothing is timed, so
the step cannot flake):

1. Every target in ``benchmarks/e2e/trace.py::PATCHES`` still resolves.
   The tracer patches the program from outside; a refactor that renames
   a target makes its layer read zero while every workload stays
   correct.
2. ``scenario_flash_crowd`` at smoke size calls ``AuroraEngine.step``
   exactly as often as the engine made scheduling decisions (the
   registry's ``engine.scheduler.decisions`` total of the same run).  An
   idle ``step()`` — a call that pays ``choose()`` to be told the queued
   index is empty — shows up as an excess.
3. The simulated plane's twin: ``aurora_star_chain`` at smoke size
   fires no ``AuroraNode._work`` event that finds nothing queued (a
   wake-up that is provably next runs inside the handler that made it
   due instead), and runs at most two simulator events per box-tuple
   (its arrival and its train completion).
4. Due arrivals enter together: the same ``scenario_flash_crowd`` run
   makes at most one ``AuroraEngine.push`` / ``push_many`` call per
   scheduling decision or control event (fault transition, probe
   tick), plus one, and no per-tuple ``LoadShedder.admit`` call.  A
   runner that pushes arrival by arrival makes one call per arrival,
   about three times that bound.

The same workload is also run once under ``--trace 1`` so the patches
are exercised for real; its ``core.engine.step.calls`` is printed, not
gated: that counter also counts an entry into ``run_until_idle`` that
returns at its own idle test (the runner's closing call and
``flush()``'s, two per run).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def unresolved_patches() -> list[str]:
    from benchmarks.e2e.trace import PATCHES, _resolve

    missing = []
    for _layer, target, _measure in PATCHES:
        try:
            owner, attr = _resolve(target)
            getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc}")
    return missing


def traced_step_calls(seed: int) -> int:
    """``core.engine.step.calls`` of one traced smoke run (a subprocess:
    the recorder patches classes process-wide)."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
         "--workload", "scenario_flash_crowd", "--smoke", "--trace", "1",
         "--seed", str(seed), "--seconds", "1"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("scenario_flash_crowd reported correct=false")
    return int(result["metrics"]["core.engine.step.calls"]["value"])


def flash_crowd_counts(seed: int) -> dict[str, int]:
    """``scenario_flash_crowd`` at smoke size, untraced: calls of
    ``AuroraEngine.step``, ``push`` and ``push_many`` and of
    ``LoadShedder.admit``, scheduling decisions, and the runner's
    control events (fault transitions and probe ticks)."""
    from benchmarks.e2e.workloads import ScenarioFlashCrowd
    from repro.core.engine import AuroraEngine
    from repro.core.shedder import LoadShedder
    from repro.workloads.scenarios import TICK

    targets = [(AuroraEngine, "step"), (AuroraEngine, "push"),
               (AuroraEngine, "push_many"), (LoadShedder, "admit")]
    counts = dict.fromkeys((name for _owner, name in targets), 0)

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    workload = ScenarioFlashCrowd(seed, smoke=True)
    workload.setup()
    reals = [(owner, name, getattr(owner, name)) for owner, name in targets]
    for owner, name, real in reals:
        setattr(owner, name, counted(name, real))
    try:
        workload.run()
    finally:
        for owner, name, real in reals:
            setattr(owner, name, real)
    scenario = workload.scenario
    counts["decisions"] = int(workload.result.registry.total("engine.scheduler.decisions"))
    counts["control"] = 2 * len(scenario.faults) + max(1, round(scenario.duration / TICK))
    return counts


def node_wake_ups(seed: int) -> tuple[int, int, int, int]:
    """``aurora_star_chain`` at smoke size: (``_work`` events, those that
    found nothing queued, simulator events, box-tuples)."""
    from benchmarks.e2e.workloads import AuroraStarChain
    from repro.sim.simulator import Simulator

    real, counts = Simulator.schedule, [0, 0]

    def schedule(sim, delay, fn, *args):
        if getattr(fn, "__name__", None) == "_work":
            work = fn

            def fn():
                counts[0] += 1
                counts[1] += work.__self__._choose_box() is None
                work()

        return real(sim, delay, fn, *args)

    workload = AuroraStarChain(seed, smoke=True)
    workload.setup()
    Simulator.schedule = schedule
    try:
        workload.run()
    finally:
        Simulator.schedule = real
    system = workload.system
    box_tuples = sum(node.tuples_processed for node in system.nodes.values())
    return counts[0], counts[1], system.sim.events_processed, box_tuples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    missing = unresolved_patches()
    for line in missing:
        print(f"PATCHES target does not resolve: {line}")
    counts = flash_crowd_counts(seed)
    steps, decided = counts["step"], counts["decisions"]
    print(f"AuroraEngine.step calls {steps}, engine.scheduler.decisions {decided}")
    if steps != decided:
        print(f"{steps - decided} step() calls made no decision (idle steps)")
    ingest = counts["push"] + counts["push_many"]
    bound = decided + counts["control"] + 1
    print(f"ingest calls {ingest} (push {counts['push']}, push_many "
          f"{counts['push_many']}), bound {bound} = {decided} decisions + "
          f"{counts['control']} control events + 1; LoadShedder.admit calls "
          f"{counts['admit']}")
    ingest_ok = ingest <= bound and counts["admit"] == 0
    if not ingest_ok:
        print("arrivals enter one by one (more ingest calls than the bound, "
              "or per-tuple shedder admission)")
    work, idle, events, box_tuples = node_wake_ups(seed)
    print(f"aurora_star_chain: {work} _work events, {idle} found nothing queued; "
          f"{events} simulator events for {box_tuples} box-tuples")
    node_ok = idle == 0 and events <= 2 * box_tuples
    if not node_ok:
        print("idle node wake-ups or more than two events per box-tuple")
    print(f"traced core.engine.step.calls {traced_step_calls(seed)}")
    return 1 if missing or steps != decided or not node_ok or not ingest_ok else 0


if __name__ == "__main__":
    sys.exit(main())
