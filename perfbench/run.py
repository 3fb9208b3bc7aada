"""Benchmark of the nbibp package: four workloads, end-to-end metrics, and an
outside-in per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload chain-data --seed 1 --seconds 20 --trace 0

Workloads: chain-data, chain-prior, simulate-buffet, infer-cold (see
``workloads.py`` and BENCHMARK.json).  One process, one thread; BLAS and
OpenMP are pinned to one thread before numpy loads.

``--trace 0`` measures for ``--seconds`` seconds with tracing off (longer,
up to 1.5x, until 100 steps completed) and reports the end-to-end metrics:
completed operations per second (sweeps, or replicates for simulate-buffet),
per-operation latency p50/p90 in ms over the completed steps, set-up time
(median of five fresh processes that import the package and build the
inputs) and peak resident memory.  Only the package call of each step is
timed; the output checks run between steps.

``attempted`` and ``failed`` count operations.  A workload that cycles a
fixed input set (infer-cold) counts each input's first call only: later
passes repeat the same calls for timing, and a repeat whose outcome or output
differs from the first makes the run incorrect.  So the counts are a function
of the seed alone, not of how many steps fit in the time.

``--trace 1`` runs the workload's fixed traced step count with wrappers
installed, then the same steps again untraced.  The two output digests must be
equal (tracing consumes no random draws); if they differ the run fails with
exit code 1.  It reports per-layer calls, times and counts, the chain-quality
numbers and the tracing overhead.

All times are scaled to a reference host speed (see ``host.py``); the raw
figures are in the context line.  Every run prints that context line
(machine, versions, input and output digests, the host reading at start and
end, the metrics under the names sweeps_per_s / reps_per_s / fail_frac) and,
last, the result object ``{"correct", "attempted", "failed", "metrics"}``.
Both also go to ``.perfbench/`` in the repository root, with the trace spans.
The host reading is not a metric of the program: do not compare it between
commits.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import host
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_STEPS = 100
SETUP_SAMPLES = 5
PROBE_EVERY_S = 0.05

# Set-up as a user pays it: interpreter already up, then imports and inputs.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import workloads
pkg = workloads.load_package(sys.argv[2])
workloads.WORKLOADS[sys.argv[3]](pkg, int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""

PER_LAYER_OBS = ("inference.kappa_mean", "inference.tau_kappa", "inference.tau_log_joint", "cli.out_bytes")

# Unit of a per-layer metric, by the last component of its name.
UNITS = {
    "calls": "count", "accepted": "count", "rounds": "count", "s": "s", "self_s": "s",
    "kappa_mean": "count", "tau_kappa": "sweeps", "tau_log_joint": "sweeps",
    "out_bytes": "bytes", "overhead_frac": "ratio",
}


@dataclass
class Run:
    """Per-step record of one measured run.  The reference loop is timed
    after every PROBE_EVERY_S seconds of steps; ``probe[i]`` is the index of
    the reading just before step i, and the next reading follows it."""

    dt: list = field(default_factory=list)
    units: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    probe: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sound: bool = True
    digest: str = ""
    obs: dict = field(default_factory=dict)

    def scaled_dt(self):
        """Step times on the reference host: each step's time is scaled by the
        two readings around it, which follows the host's changes within a run."""
        p = np.asarray(self.probes)
        j = np.asarray(self.probe, dtype=np.int64)
        return np.asarray(self.dt) * host.REF_S / (0.5 * (p[j] + p[j + 1]))

    def completed(self, dt):
        """(times, units) of the completed steps."""
        ok = np.asarray(self.ok, dtype=bool)
        return np.asarray(dt)[ok], np.asarray(self.units)[ok]


def measure(wl, stop, tracer=None):
    """Run steps until ``stop(run, elapsed)``; time only ``wl.step``."""
    run = Run(probes=[host.reference_loop()])
    h = hashlib.sha256()
    first = []  # (ok, output hash) of each input's first step
    since_probe = 0.0
    t_begin = time.perf_counter()
    while not stop(run, time.perf_counter() - t_begin):
        i = len(run.dt)
        wl.prepare(i)
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, err = wl.step(i), None
        except Exception as exc:  # a crash of the program is a failed operation
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        res = wl.check(i, out, err)
        h.update(res.blob)
        run.dt.append(dt)
        run.units.append(res.units)
        run.ok.append(res.ok)
        run.probe.append(len(run.probes) - 1)
        outcome = (res.ok, hashlib.sha256(res.blob).digest())
        if wl.inputs and i >= wl.inputs:
            # A repeat of an earlier call with the same input and seed: it is
            # timed, not counted again, and must reproduce the first outcome.
            run.sound = run.sound and outcome == first[i % wl.inputs]
        else:
            first.append(outcome)
            run.attempted += res.units
            run.failed += 0 if res.ok else res.units
        run.sound = run.sound and res.sound
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            run.probes.append(host.reference_loop())
            since_probe = 0.0
    run.probes.append(host.reference_loop())
    sound, all_failed, run.obs = wl.finish()
    run.sound = run.sound and sound
    if all_failed:
        run.failed = run.attempted
    run.digest = h.hexdigest()
    return run


def timed_for(seconds, inputs=0):
    """Stop after ``seconds`` once MIN_STEPS steps completed, or at 1.5x; but
    never before the first ``inputs`` steps (one pass over a cycled input
    set) are done, so that the counted steps do not depend on timing."""
    return lambda run, elapsed: len(run.dt) >= inputs and elapsed >= seconds and (
        sum(run.ok) >= MIN_STEPS or elapsed >= 1.5 * seconds
    )


def exactly(n, cap_s):
    return lambda run, elapsed: len(run.dt) >= n or elapsed >= cap_s


def setup_s(name, seed, workdir):
    """(scaled, raw) median set-up time over SETUP_SAMPLES fresh processes,
    each scaled by host readings taken just before and just after it."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(host.reference_loop() for _ in range(3))
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(ROOT), name, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = statistics.median(host.reference_loop() for _ in range(3))
        t = float(out.stdout.split()[-1])
        scaled.append(t * host.REF_S / (0.5 * (before + after)))
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(dt, units):
    """ops_per_s, op_ms_p50 and op_ms_p90 from the completed steps' times."""
    if not len(dt):
        return 0.0, 0.0, 0.0
    p50, p90 = np.percentile(1e3 * dt / units, [50, 90])
    return float(units.sum() / dt.sum()), float(p50), float(p90)


def end_to_end(pkg, wl_cls, args, workdir):
    setup, setup_raw = setup_s(wl_cls.name, args.seed, workdir)
    wl = wl_cls(pkg, args.seed, workdir)
    run = measure(wl, timed_for(args.seconds, wl.inputs))
    ops, p50, p90 = timings(*run.completed(run.scaled_dt()))
    raw_ops, raw_p50, raw_p90 = timings(*run.completed(run.dt))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": metric(ops, "1/s"),
        "op_ms_p50": metric(p50, "ms"),
        "op_ms_p90": metric(p90, "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    rate = "reps_per_s" if wl.op == "replicate" else "sweeps_per_s"
    named = {rate if k == "ops_per_s" else k: v for k, v in metrics.items()}
    named["fail_frac"] = metric(run.failed / run.attempted, "1")
    context = {
        "steps": len(run.dt),
        "completed_steps": int(sum(run.ok)),
        "output_digest": run.digest,
        "checks": {k: v for k, v in run.obs.items() if k.startswith("check.")},
        "host_scale": float(run.scaled_dt().sum() / sum(run.dt)),
        "named_metrics": named,
        "raw_metrics": {rate: raw_ops, "op_ms_p50": raw_p50, "op_ms_p90": raw_p90, "setup_s": setup_raw},
    }
    return wl, run, metrics, context


def traced(pkg, wl_cls, args, workdir):
    tracer = spans.Tracer(pkg).install()
    try:
        wl = wl_cls(pkg, args.seed, workdir)
        run = measure(wl, exactly(wl.trace_steps, 3.0 * args.seconds), tracer)
    finally:
        tracer.uninstall()
    plain = measure(wl_cls(pkg, args.seed, workdir), exactly(len(run.dt), float("inf")))
    if plain.digest != run.digest:
        sys.exit(
            f"tracing changed the output of {wl_cls.name} (seed {args.seed}): digest "
            f"{run.digest} traced vs {plain.digest} untraced"
        )
    tracer.write(workdir / f"trace-{wl_cls.name}.npz")
    busy = run.scaled_dt().sum()
    k = float(busy / sum(run.dt))
    overhead = float(busy / plain.scaled_dt().sum() - 1.0)
    values = tracer.stats()
    for name in values:
        if name.endswith(".s") or name.endswith(".self_s"):
            values[name] *= k
    values.update({name: run.obs.get(name, 0) for name in PER_LAYER_OBS})
    values["trace.overhead_frac"] = overhead
    metrics = {name: metric(v, UNITS[name.rsplit(".", 1)[-1]]) for name, v in values.items()}
    context = {
        "steps": len(run.dt),
        "spans": len(tracer.start),
        "output_digest": run.digest,
        "untraced_digest": plain.digest,
        "trace_overhead_frac": overhead,
        "host_scale": k,
        "checks": {name: v for name, v in run.obs.items() if name.startswith("check.")},
    }
    run.sound = run.sound and plain.sound
    return wl, run, metrics, context


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")

    pkg = workloads.load_package(ROOT)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    host_start = host.reference_loop(100)
    phase = traced if args.trace else end_to_end
    wl, run, metrics, context = phase(pkg, workloads.WORKLOADS[args.workload], args, workdir)
    host_end = host.reference_loop(100)

    context = {
        "kind": "context",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
        "machine": host.machine(),
        "input_digest": wl.input_digest,
        "host_reading_s": {"start": host_start, "end": host_end},
        **context,
    }
    result = {
        "correct": run.sound,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workdir / f"{stem}.json").write_text(json.dumps({"context": context, "result": result}, indent=1))
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
