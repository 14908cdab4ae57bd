"""posetgeo benchmark: drives the public CLI (``posetgeo.cli.main``)
in-process, one command at a time (a closed loop with one client), on
inputs generated from ``--seed``.

    python3 bench/run.py --workload census --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

A run sets up its inputs, then runs timed passes until they have taken
``--seconds`` and checks every pass's outputs against independent
oracles.  It sets up again after each pass, outside the pass's timing.
A shared machine can run slow for seconds at a time, so each timing is
the fastest of its kind in the run: ``setup_s`` is the fastest
set-up, and ``wall_s`` sums each command's fastest time over the passes.
The census and roundtrip inputs are sized so that each command takes
well under a second, which gives a run many samples of each; the suites
run at their default parameters.

``--trace 1`` instead runs three passes: untraced, sampled (span wrappers
and a stack sampler: layer times) and counted (every wrapper: calls and
ratios), then the lattice scale ladder, and reports the per-layer
metrics.  ``--tamper`` corrupts an output of the first pass, which the
checks must count as a failure.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from
``src/`` of the checkout that holds this file, and nothing is written
outside that checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

LADDER = ((8, 60), (16, 120))


class Tally:
    """Attempted and failed operations: CLI commands, checks, comparisons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {label}", file=sys.stderr)

    def extend(self, results) -> None:
        for label, ok in results:
            self.add(label, ok)


def import_package() -> None:
    """(Re-)import posetgeo from the checkout's src/, dropping any
    earlier copy so that the import runs in full."""
    for name in [n for n in sys.modules if n == "posetgeo" or n.startswith("posetgeo.")]:
        del sys.modules[name]
    module = importlib.import_module("posetgeo.cli")
    if SRC not in Path(module.__file__).resolve().parents:
        raise ImportError(f"posetgeo imported from {module.__file__}, not {SRC}")


def run_cli(argv: list[str], tally: Tally, tracer: tracing.Tracer | None = None) -> None:
    if tracer is not None:
        tracer.cmd += 1
    cli = sys.modules["posetgeo.cli"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        print(f"posetgeo {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        code = None
    tally.add(f"posetgeo {' '.join(argv)} exited {code}", code == 0)


def set_up(wl: Workload, tally: Tally) -> list[float]:
    times = []
    for _ in range(wl.setup_reps):
        gc.collect()
        t0 = time.perf_counter()
        import_package()
        for argv in wl.setup_commands():
            run_cli(argv, tally)
        times.append(time.perf_counter() - t0)
    return times


def timed_pass(wl: Workload, tally: Tally, tracer: tracing.Tracer | None = None) -> list[float]:
    """Wall time of each command of one pass."""
    times = []
    for argv in wl.pass_commands():
        gc.collect()
        t0 = time.perf_counter()
        run_cli(argv, tally, tracer)
        times.append(time.perf_counter() - t0)
    return times


def negative_control(wl: Workload, tally: Tally) -> None:
    """A tampered output must fail at least one check."""
    wl.tamper()
    caught = any(not ok for _, ok in wl.check(0))
    tally.add("negative control: tampered output is caught", caught)


def measure(args, wl: Workload, tally: Tally, walls: list[float]) -> dict:
    """Set up, run the passes (appending their wall times to ``walls``)
    and check every output; returns the metrics."""
    setups = set_up(wl, tally)
    wl.prepare()
    if args.trace:
        walls.append(sum(timed_pass(wl, tally)))
        if args.tamper:
            wl.tamper()
        tally.extend(wl.check(1))
        spans = tracing.Tracer(hot=False)
        sampler = tracing.Sampler(str(SRC / "posetgeo"))
        spans.install()
        sampler.start()
        try:
            sampled = sum(timed_pass(wl, tally, spans))
        finally:
            sampler.stop()
            spans.uninstall()
        tally.extend(wl.check(2))
        counted = tracing.Tracer()
        counted.install()
        try:
            traced = sum(timed_pass(wl, tally, counted))
        finally:
            counted.uninstall()
        tally.extend(wl.check(3))
        metrics = tracing.layer_metrics(counted, sampler, walls[0], sampled, traced)
        metrics.update(scale_ladder(wl, tally))
        write_trace(args, spans, counted, sampler, metrics)
    else:
        passes = []
        while True:
            passes.append(timed_pass(wl, tally))
            walls.append(sum(passes[-1]))
            if args.tamper and len(walls) == 1:
                wl.tamper()
            tally.extend(wl.check(len(walls)))
            if sum(walls) >= args.seconds:
                break
            setups += set_up(wl, tally)
        wall_s = sum(min(times) for times in zip(*passes))
        metrics = {
            "setup_s": (min(setups), "s"),
            "wall_s": (wall_s, "s"),
            "work_per_s": (wl.work_per_pass() / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    tally.extend(wl.once())
    negative_control(wl, tally)
    return metrics


def scale_ladder(wl: Workload, tally: Tally) -> dict:
    """Census, load and cover reduction per unit of size on two lattice
    rungs, timed by span-only tracing (no per-call wrappers)."""
    metrics = {}
    for width, ticks in LADDER:
        rung = f"w{width}x{ticks}"
        doc, csv = wl.path(f"ladder-{rung}.json"), wl.path(f"ladder-{rung}.csv")
        tracer = tracing.Tracer(hot=False)
        tracer.install()
        try:
            run_cli(["generate", "lattice1p1", "--width", str(width), "--ticks",
                     str(ticks), "--out", doc], tally, tracer)
            run_cli(["classify", doc, "all", "all", "--format", "csv", "--out", csv],
                    tally, tracer)
        finally:
            tracer.uninstall()
        tot = tracer.totals()
        events = (width + 1) * (ticks + 1)
        attempts = events * width * (width + 1) // 2
        per = {
            f"collinearity.census.us_per_code.{rung}": ("collinearity.census", attempts),
            f"serialize.poset_from_doc.us_per_event.{rung}": ("serialize.poset_from_doc", events),
            f"poset.cover_pairs.us_per_event.{rung}": ("poset.cover_pairs", events),
        }
        for metric, (name, units) in per.items():
            metrics[metric] = (tot.get(name, [0, 0.0])[1] / units * 1e6, "us")
        text = Path(csv).read_text(encoding="utf-8") if Path(csv).exists() else ""
        tally.add(f"ladder {rung}: csv matches the coordinate oracle",
                  oracles.csv_histogram(text) == oracles.lattice_census(width, ticks))
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(args, meta: dict) -> int:
    tally = Tally()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](work, args.seed, meta)
    walls, metrics = [], {}
    try:
        metrics = measure(args, wl, tally, walls)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        # outputs so broken that a check or a tamper step cannot read them
        tally.add(f"benchmark step failed on the program's outputs: {exc!r}", False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}: {wl.work_per_pass()} {wl.work_unit} "
          f"per pass; {len(walls)} timed pass(es): "
          + ", ".join(f"{w:.3f} s" for w in walls))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(f"  fail_ratio {tally.failed}/{tally.attempted}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def write_trace(args, spans: tracing.Tracer, counted: tracing.Tracer,
                sampler: tracing.Sampler, metrics: dict) -> None:
    """Spans of the sampled pass, per-parent aggregates of the counted
    pass, sample counts and metrics, as one JSON file."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "metrics": {k: v for k, (v, _u) in metrics.items()},
            "spans": spans.span_records(),
            "spans_dropped": spans.spans_dropped,
            "by_parent": counted.by_parent(),
            "self_samples": dict(sampler.self_samples.most_common()),
            "inclusive_samples": dict(sampler.incl_samples.most_common()),
            "samples": sampler.samples,
        }, fp)
    print("self time share by function (sampled pass):")
    for name, n in sampler.self_samples.most_common(10):
        print(f"  {name:<44} {n / max(sampler.samples, 1):7.1%}")
    print("calls by (function, parent) (counted pass):")
    for r in sorted(counted.by_parent(), key=lambda r: -r["calls"])[:10]:
        print(f"  {r['name']:<34} <- {r['parent']:<34} {r['calls']:>9}")
    print(f"trace written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tamper"] if args.tamper else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt an output of the first pass (negative control)")
    args = parser.parse_args()
    if not (SRC / "posetgeo" / "__init__.py").is_file():
        print(f"error: no posetgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, meta)


if __name__ == "__main__":
    sys.exit(main())
