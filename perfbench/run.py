"""Benchmark of the casimir package, driven from outside the program.

    python3 perfbench/run.py --workload thermal --seed 1 --seconds 18 --trace 0

Run from the repository root.  The program is imported from ``src/``;
nothing is installed.  One run:

1. times cold starts of a fresh interpreter importing ``casimir`` and
   ``casimir.cli`` (after one untimed start that fills the bytecode
   cache): ``SETUP_RUNS`` up front and one after each pass, and reports
   their median as ``setup_s``; with ``--trace 1``, ``SETUP_RUNS`` more
   starts under ``-X importtime`` give the ``import.*`` breakdown;
2. generates the workload's points from ``--seed`` and runs whole passes
   over them in this single-threaded process (a closed loop with one
   caller) until ``--seconds`` have elapsed, timing every point; a point's
   time is its median over the passes, ``wall_s`` is the sum of those
   (one evaluation of every point) and ``point_p50_ms`` their median;
3. with ``--trace 1``, runs one more pass with the tracer installed and
   derives the per-module metrics from its spans (written under
   ``perfbench/out/``); the tracer is never installed during timed passes;
4. checks every value against the mpmath oracle, outside the timed
   region, and checks that repeated points gave identical output.

Point times are scaled to a reference machine speed (see ``gauge``); the
unscaled figures and the median gauge reading are printed beside them.
Metric units are read from ``BENCHMARK.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the values of one evaluation of every point, so they depend on the
seed alone and not on how many passes fitted in the time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from oracle import Oracle
from tracer import MODULES, Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

SETUP_RUNS = 5
GAUGE_REF_S = 3.2e-3
IMPORT_CODE = "import sys; sys.path.insert(0, {src!r}); import casimir, casimir.cli"
# a value agreeing with its reference to fewer significant digits is wrong
MIN_DIGITS = 6.0
# Routes with a known accuracy defect: a wrong value of theirs counts as a
# failed value ("inaccurate") instead of making the run incorrect, and
# their erratic digits stay out of correct_digits_min (they still count
# in err_bound_held_share and in the worst value printed).  The dispersive
# mode sums integrate the photon index across its jump at omega0, and
# adaptive_quad can report convergence across that jump with only a few
# correct digits.
KNOWN_INACCURATE = ("hyperdim.dispersive_hyper_energy", "cli.cutoff-sum.dispersive")
DIGITS_CAP = 16.0
END_TO_END = ("setup_s", "wall_s", "point_p50_ms", "correct_digits_min", "ok_share",
              "err_bound_held_share", "peak_rss_mb")
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def cold_start(extra=()) -> tuple[float, str]:
    """Wall time of a fresh interpreter importing the package, and its stderr."""
    cmd = [sys.executable, "-E", *extra, "-c", IMPORT_CODE.format(src=SRC)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.* metrics (ms) from ``python -X importtime`` output."""
    numpy_us = mpmath_us = own_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            continue  # the header line
        name = parts[2].strip()
        if name == "numpy":
            numpy_us = cumulative_us
        elif name == "mpmath":
            mpmath_us = cumulative_us
        elif name == "casimir" or name.startswith("casimir."):
            own_us += self_us
    return {"import.numpy_ms": numpy_us / 1e3, "import.mpmath_ms": mpmath_us / 1e3,
            "import.casimir_self_ms": own_us / 1e3}


def setup_breakdown() -> dict[str, float]:
    """Median import.* breakdown of SETUP_RUNS cold starts under
    ``-X importtime``."""
    runs = [parse_importtime(cold_start(("-X", "importtime"))[1]) for _ in range(SETUP_RUNS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def gauge() -> float:
    """Seconds one run of a fixed pure-Python kernel takes right now.

    The machine's cores are shared, and the speed this process gets drifts
    by tens of percent within seconds.  Each point's time is scaled by
    GAUGE_REF_S over the median of the gauge samples taken around it, so
    it reads as seconds on a machine where the kernel takes GAUGE_REF_S."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 16001):
        x = i * 0.001
        s += math.exp(-x) * math.log1p(x) / (1.0 + x * x)
    return time.perf_counter() - t0


class Timings:
    """Per-point seconds, one sample per pass, scaled and as measured, and
    every gauge reading taken."""

    def __init__(self, n_points: int):
        self.scaled = [[] for _ in range(n_points)]
        self.raw = [[] for _ in range(n_points)]
        self.gauges: list[float] = []


def run_pass(workload, points, timings: Timings, tracer=None) -> list:
    """One pass over the points; appends each point's seconds to
    ``timings`` and returns the per-point results."""
    clock = time.perf_counter
    results, elapsed, gauges = [], [], [gauge()]
    for i, point in enumerate(points):
        if tracer is not None:
            tracer.point = i
        t0 = clock()
        results.append(workload.run(point))
        elapsed.append(clock() - t0)
        gauges.append(gauge())
    for i, t in enumerate(elapsed):
        # gauges[i] and gauges[i + 1] bracket point i; their neighbours
        # damp the noise of single gauge samples
        around = gauges[max(0, i - 1):i + 3]
        timings.scaled[i].append(t * GAUGE_REF_S / statistics.median(around))
        timings.raw[i].append(t)
    timings.gauges.extend(gauges)
    return results


def timed_passes(workload, points, seconds: float, setup_samples: list):
    """Whole passes over the points until ``seconds`` have elapsed (at
    least one), with one cold start timed after each pass so the set-up
    samples spread over the run.  Returns the timings, the per-pass
    fingerprints and the values of the first pass."""
    timings = Timings(len(points))
    fingerprints = []
    values = None
    t_begin = time.perf_counter()
    while True:
        results = run_pass(workload, points, timings)
        fingerprints.append(repr([fp for _, fp in results]))
        values = values or [workload.values(r) for r, _ in results]
        setup_samples.append(cold_start()[0])
        if time.perf_counter() - t_begin >= seconds:
            return timings, fingerprints, values


def traced_pass(workload, points, path: str):
    """One pass with the tracer installed; returns the tracer, the pass's
    scaled seconds and its fingerprint."""
    tracer = Tracer()
    timings = Timings(len(points))
    tracer.install()
    try:
        results = run_pass(workload, points, timings, tracer)
    finally:
        tracer.uninstall()
    tracer.write(path)
    return tracer, sum(s[0] for s in timings.scaled), repr([fp for _, fp in results])


def digits(value: float, ref: float) -> float:
    if value == ref:
        return DIGITS_CAP
    dev = abs(value - ref) / abs(ref) if ref != 0 else abs(value)
    return min(DIGITS_CAP, -math.log10(dev))


def check_values(values, oracle: Oracle) -> dict:
    """Failure counts, digits and error-bar honesty for one pass.

    ``digits_min`` is the lowest digits of any checked value outside
    KNOWN_INACCURATE, with the route it came from; ``worst`` is the lowest
    of all checked values."""
    flat = [v for point in values for v in point]
    failed = [(v.route, v.failed) for v in flat if v.failed]
    lowest = worst = (math.inf, None)
    bounded = held = 0
    wrong = []
    for v in flat:
        if v.failed or v.ref is None:
            continue
        ref = oracle.ref(v.ref)
        d = digits(v.value, ref)
        worst = min(worst, (d, v.route))
        if v.err is not None:
            bounded += 1
            held += abs(v.value - ref) <= v.err
        if v.route in KNOWN_INACCURATE:
            if d < MIN_DIGITS:
                failed.append((v.route, "inaccurate"))
            continue
        if d < MIN_DIGITS:
            wrong.append((d, v))
        lowest = min(lowest, (d, v.route))
    return {
        "values": len(flat),
        "failed": len(failed),
        "failures": sorted(set(failed)),
        "digits_min": lowest,
        "worst": worst,
        "bounded": bounded,
        "bound_held": held,
        "wrong": wrong,
    }


CALLS_AND_SELF = (
    "green_em.spectral_energy_density",
    "dispersion.photon_index",
    "dispersion.dispersive_mode_solve",
    "matsubara.free_energy",
    "matsubara.internal_energy",
    "matsubara.internal_energy_direct",
    "matsubara.internal_energy_resummed",
    "matsubara.internal_energy_from_F",
    "matsubara.pressure",
    "specfun.hurwitz_zeta",
    "specfun.gamma_fn",
    "cli.main",
)
SELF_ONLY = (
    "green_em.em_energy_T0",
    "green_em.em_energy_T0_polar",
    "green_em.em_energy_finiteT",
    "dispersion.w_I_energy",
    "dispersion.w2_density_cutoff",
    "hyperdim.cutoff_mode_energy",
    "hyperdim.dispersive_hyper_energy",
    "hyperdim.pressure_quadrature",
    "hyperdim.density_profile",
    "hyperdim.pressure_from_w1",
)


def layer_metrics(tracer, untraced_wall: float, traced_wall: float) -> dict[str, float]:
    self_s = tracer.self_times()
    m: dict[str, float] = {}

    def calls(span):
        return float(tracer.calls.get(span, 0))

    def own(span):
        return self_s.get(span, 0.0)

    def count(key):
        return float(tracer.counts.get(key, 0))

    q = "engine.adaptive_quad"
    m.update({f"{q}.calls": calls(q), f"{q}.evals": count(q + ".evals"),
              f"{q}.self_s": own(q), f"{q}.unconverged": count(q + ".unconverged")})
    m["engine.us_per_eval"] = own(q) / count(q + ".evals") * 1e6 if count(q + ".evals") else 0.0
    s = "engine.sum_series"
    m.update({f"{s}.calls": calls(s), f"{s}.terms": count(s + ".evals"),
              f"{s}.self_s": own(s), f"{s}.unconverged": count(s + ".unconverged")})
    r = "engine.find_root"
    m.update({f"{r}.calls": calls(r), f"{r}.fevals": count(r + ".fevals"),
              f"{r}.self_s": own(r), f"{r}.errors": count(r + ".errors")})
    for span in CALLS_AND_SELF:
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.self_s"] = own(span)
    for span in SELF_ONLY:
        m[f"{span}.self_s"] = own(span)
    for mod in MODULES:
        spans = [n for n in tracer.names if n.startswith(mod + ".")]
        total = sum(tracer.calls.get(n, 0) for n in spans)
        m[f"{mod}.self_s"] = sum(own(n) for n in spans)
        m[f"{mod}.repeat_share"] = (
            sum(tracer.repeats.get(n, 0) for n in spans) / total if total else 0.0
        )
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def environment() -> str:
    import mpmath

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (f"python {platform.python_version()}, numpy {numpy_version}, "
            f"mpmath {mpmath.__version__}, nproc {os.cpu_count()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "casimir", "__init__.py")):
        print(f"error: no src/casimir under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import casimir

    if not os.path.abspath(casimir.__file__).startswith(SRC + os.sep):
        print(f"error: imported casimir from {casimir.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    cold_start()  # fills the bytecode cache; users do not pay this per run
    setup_samples = [cold_start()[0] for _ in range(SETUP_RUNS)]
    points = workload.points(args.seed)
    timings, fingerprints, values = timed_passes(workload, points, args.seconds, setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a point's median over the passes damps bursts of machine noise
    point_s = [statistics.median(samples) for samples in timings.scaled]
    wall_s = sum(point_s)
    raw_point_s = [statistics.median(samples) for samples in timings.raw]
    samples_ms = [t * 1e3 for samples in timings.scaled for t in samples]
    repeatable = len(set(fingerprints)) == 1
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
        tracer, traced_s, traced_fp = traced_pass(workload, points, path)
        repeatable = repeatable and traced_fp == fingerprints[0]
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(path, ROOT)}")

    check = check_values(values, Oracle())
    passes = len(fingerprints)
    # repeated passes give identical values (checked above), so counting
    # them again would only tie the counts to the machine's speed
    attempted = check["values"]
    failed = check["failed"]
    if args.trace:
        metrics = {**setup_breakdown(), **layer_metrics(tracer, wall_s, traced_s)}
    else:
        metrics = dict(zip(END_TO_END, (
            statistics.median(setup_samples),
            wall_s,
            statistics.median(point_s) * 1e3,
            check["digits_min"][0],
            1.0 - failed / attempted,
            check["bound_held"] / max(check["bounded"], 1),
            peak_rss_mb,
        )))
    correct = repeatable and not check["wrong"] and check["digits_min"][1] is not None

    print(f"workload {args.workload}, seed {args.seed}")
    print(f"environment: {environment()}")
    print(f"{len(points)} points x {passes} passes = {len(samples_ms)} point samples, "
          f"{check['values']} values per pass")
    print(f"setup samples (s): {' '.join(f'{t:.3f}' for t in setup_samples)}")
    print(f"unscaled: wall_s = {sum(raw_point_s):.6g} s, "
          f"point_p50_ms = {statistics.median(raw_point_s) * 1e3:.6g} ms; "
          f"gauge median = {statistics.median(timings.gauges) * 1e3:.4g} ms "
          f"(scaled to {GAUGE_REF_S * 1e3:.4g} ms)")
    if len(samples_ms) >= 10 * TAIL_SAMPLES:
        print(f"point_p90_ms = {statistics.quantiles(samples_ms, n=10)[-1]:.6g} ms "
              f"over all {len(samples_ms)} samples")
    print(f"failed_share = {failed / attempted:.6g} {check['failures']}")
    print(f"err_bound_violation_share = "
          f"{1 - check['bound_held'] / max(check['bounded'], 1):.6g} "
          f"of {check['bounded']} converged values with an error estimate")
    print(f"correct_digits_min from {check['digits_min'][1]}; "
          f"worst value of any route: {check['worst'][1]} ({check['worst'][0]:.4g} digits)")
    if not repeatable:
        print("NOT REPEATABLE: a repeated point gave different output")
    for d, v in check["wrong"]:
        print(f"WRONG: {v.route} {v.ref} -> {v.value!r} ({d:.3g} digits)")
    unit = units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
