#!/usr/bin/env python3
"""motline benchmark: time to a certified result.

    python3 perfbench/run.py --workload project --seed 1 --seconds 30 --trace 0

Runs one workload from BENCHMARK.json as a closed loop with one client in this
process, checks every result with the solver-independent gates in gates.py,
prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced pass (tracing.py) and writes its spans under ``.perfbench_out/``.

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP = 2  # deck instances run untimed in every set-up
# Seconds the reference kernel takes at the speed all reported times are
# scaled to.  On the 2-vCPU 2.0 GHz Xeon the baseline was taken on it took
# 21 ms in a fast period.
REFERENCE_S = 0.025
HARD_STOP_S = 140.0  # start no instance after this much wall time, to end within 180 s
WORKLOADS = ("project", "rearrange-cli", "mot-batch")  # workloads.WORKLOADS, known before import


def import_package() -> float:
    """Import motline from this checkout's src/; returns the seconds taken."""
    if not (SRC / "motline" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'motline'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import motline
    elapsed = time.perf_counter() - start
    if Path(motline.__file__).resolve().parent != (SRC / "motline").resolve():
        raise SystemExit(f"error: imported motline from {motline.__file__}, not {SRC}")
    return elapsed


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that does not use motline:
    pivot-like updates of a 150 x 700 array, a small least-squares solve and
    an interpreter loop, the kinds of work the workloads do.  Timed between
    rounds, it tracks the speed of the shared host, which drifts by tens of
    percent within minutes."""
    import numpy as np

    start = time.perf_counter()
    table = np.linspace(1.0, 2.0, 150 * 700).reshape(150, 700)
    for k in range(75):
        row = k % 150
        col = int(np.argmin(table[-1] + k))
        table[row] /= table[row, col]
        factors = table[:, col].copy()
        factors[row] = 0.0
        table -= 1e-3 * np.outer(factors, table[row])
    np.linalg.lstsq(table[:60, :60], table[:60, 0], rcond=None)
    acc = 0
    for i in range(60000):
        acc += (i * i) % 7
    return time.perf_counter() - start


class Tally:
    """Outcome of one measured pass over a deck."""

    def __init__(self):
        self.latencies = []  # seconds of each instance that passed its gates
        self.ratios = []  # certificate ratios of the first instances
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.busy = 0.0  # seconds spent inside timed calls
        self.traced_busy = 0.0  # seconds inside traced calls (traced run only)
        self.reference = []  # seconds of each reference kernel, one per round


def timed_call(workload, inst, tracer=None):
    """Run one instance and its gates; returns (seconds, result, gates missed).
    Only the call is timed; with a tracer its patches are in place for it."""
    args = workload.inputs(inst)
    if tracer is not None:
        tracer.install()
    missed = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call(inst, args)
        else:
            result = tracer.run_instance(inst.ident, workload.call, inst, args)
    except Exception as exc:  # a raising instance is a failed instance
        result, missed = None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.after_instance()
    if missed is None:
        missed = workload.check(inst, result)
    return elapsed, result, missed


def measure(workload, deck, seconds, min_instances, ratio_instances, deadline,
            tracer=None, halfway=None) -> Tally:
    """Run whole rounds of the deck in order until ``seconds`` of timed calls
    and ``min_instances`` instances are done; ``halfway`` is called, untimed,
    at the first round end past half of ``seconds``.  With a tracer every
    instance also runs traced, right before or after its untraced call in
    turn, so that drift in machine speed cancels out of the tracing overhead."""
    tally = Tally()
    i = 0
    while time.monotonic() < deadline:
        if i % workload.round_size == 0:
            tally.reference.append(reference_kernel())
            if halfway is not None and tally.busy >= seconds / 2:
                halfway()
                halfway = None
            if tally.busy >= seconds and tally.attempted >= min_instances:
                break
        inst = deck[i % len(deck)]
        i += 1
        if tracer is not None and i % 2:
            tally.traced_busy += timed_call(workload, inst, tracer)[0]
        elapsed, result, missed = timed_call(workload, inst)
        if tracer is not None and not i % 2:
            tally.traced_busy += timed_call(workload, inst, tracer)[0]
        tally.busy += elapsed
        tally.attempted += 1
        if missed:
            tally.failed += 1
            tally.failures.update(f"{inst.extra['label']} slot {inst.extra['slot']}: {reason}"
                                  for reason in missed)
            continue
        tally.latencies.append(elapsed)
        if i <= ratio_instances:
            ratio = workload.ratio(inst, result)
            if ratio is not None:
                tally.ratios.append(ratio)
    return tally


class SetUp:
    """Builds the deck, writes its input files and warms up, each time it is
    called, and keeps the seconds each set-up and its generation took.  A run
    sets up before, halfway through and after its timed phase, so that the
    median samples the machine's speed at three moments."""

    def __init__(self, workload, seed, workdir, rounds):
        self.args = (workload, seed, workdir, rounds)
        self.totals, self.generation = [], []

    def __call__(self):
        workload, seed, workdir, rounds = self.args
        start = time.perf_counter()
        deck = workload.build(seed, rounds)
        generated = time.perf_counter()
        workload.prepare(deck, workdir)
        for inst in deck[:WARMUP]:
            workload.check(inst, workload.call(inst, workload.inputs(inst)))
        self.totals.append(time.perf_counter() - start)
        self.generation.append(generated - start)
        return deck


def run(name, seed, seconds, trace, rounds=None, min_instances=None):
    """One benchmark run; returns (report lines, result object)."""
    wall_start = time.monotonic()
    deadline = wall_start + HARD_STOP_S
    import_s = import_package()

    import numpy as np

    import envinfo
    import workloads
    from motline.measures import DEFAULT_TOL_MART

    workload = workloads.WORKLOADS[name]
    if min_instances is None:
        min_instances = workloads.MIN_INSTANCES
    env = envinfo.environment(ROOT, seed)
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        set_up = SetUp(workload, seed, str(workdir), rounds)
        deck = set_up()
        if not trace:
            done = measure(workload, deck, seconds, min_instances, min_instances, deadline,
                           halfway=set_up)
            set_up()
            setup_s = import_s + statistics.median(set_up.totals)
            metrics = end_to_end(done, setup_s)
        else:
            import tracing

            tracer = tracing.Tracer(DEFAULT_TOL_MART)
            done = measure(workload, deck, seconds / 2, 1, 0, deadline, tracer=tracer,
                           halfway=set_up)
            set_up()
            probes = {}  # metric -> (instances probed, [(instance, gates missed)])
            for key, probe in workload.probes(seed).items():
                workload.prepare(probe, str(workdir))
                results = [(inst, timed_call(workload, inst)[2]) for inst in probe]
                probes[key] = (len(probe), [(inst, missed) for inst, missed in results if missed])
            metrics = tracer.metrics()
            metrics["lab.generate_s"] = (statistics.median(set_up.generation), "s")
            metrics["trace.overhead_frac"] = (done.traced_busy / done.busy - 1.0, "frac")
            for key, (probed, misses) in probes.items():
                metrics[key] = (len(misses) / probed if probed else 0.0, "frac")
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write_spans(out / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs still use it
            workdir.parent.rmdir()

    lines = [f"motline benchmark: workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}",
             "env: " + json.dumps(env, sort_keys=True)]
    if trace:
        lines.append(f"traced run: {done.attempted} instances, each timed untraced "
                     f"({done.busy:.3f} s in all) and traced ({done.traced_busy:.3f} s)")
        for key, (probed, misses) in probes.items():
            lines.append(f"untimed probe for {key}: {len(misses)} of {probed} missed a gate")
            for inst, missed in misses:
                slot = f" slot {inst.extra['slot']}" if "slot" in inst.extra else ""
                lines.append(f"  probe missed: {inst.extra['label']}{slot}: {', '.join(missed)}")
        lines.append("lp.tableau_mb_max is computed from the standard-form shape, not measured")
    else:
        lat = done.latencies
        p50, p90 = (np.median(lat), np.percentile(lat, 90)) if lat else (0.0, 0.0)
        beyond = int(np.count_nonzero(np.array(lat) > p90))
        lines.append(f"instances: attempted={done.attempted} failed={done.failed} "
                     f"fail_frac={done.failed / max(done.attempted, 1):.4f} "
                     f"latency samples={len(lat)} ({beyond} beyond p90) "
                     f"rounds={done.attempted // workload.round_size} "
                     f"timed phase={done.busy:.3f} s; "
                     f"bound_ratio over the first {len(done.ratios)} instances")
        lines.append(f"times below are scaled by {speed_scale(done):.4f} = {REFERENCE_S:g} s / "
                     f"median of {len(done.reference)} reference kernels; unscaled: "
                     f"p50={p50:.6g} s p90={p90:.6g} s "
                     f"throughput={len(lat) / done.busy:.6g} 1/s setup={setup_s:.6g} s")
    for reason, n in sorted(done.failures.items()):
        lines.append(f"  failure x{n}: {reason}")
    lines.append(f"wall: {time.monotonic() - wall_start:.1f} s")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<34} {value:>16.6g} {unit}")
    result = {
        "correct": done.failed == 0 and done.attempted > 0,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result


def speed_scale(tally: Tally) -> float:
    """Factor that turns this run's seconds into seconds at the speed on
    which the reference kernel takes REFERENCE_S."""
    return REFERENCE_S / statistics.median(tally.reference)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """The end-to-end metrics; every time is scaled by speed_scale."""
    import numpy as np

    lat = tally.latencies
    scale = speed_scale(tally)
    return {
        "latency_p50_s": (scale * float(np.median(lat)) if lat else 0.0, "s"),
        "latency_p90_s": (scale * float(np.percentile(lat, 90)) if lat else 0.0, "s"),
        "throughput_per_s": (len(lat) / (scale * tally.busy) if tally.busy else 0.0, "1/s"),
        "setup_s": (scale * setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bound_ratio": (statistics.fmean(tally.ratios) if tally.ratios else 0.0, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
