"""Benchmark of champagne: one workload per run, one JSON result line.

    python3 bench/run.py --workload focus-deep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports champagne from its
src/.  Set-up is timed in fresh interpreters, several times, and reported
as the median.  The timed phase repeats whole rounds of the workload for
--seconds, then the outputs of the last round are checked.  The set-ups
run between the rounds, one per equal share of the timed phase, so that
the rounds sample the host over the whole run and not over one stretch
of it.  On a workload whose rounds are interpreter-bound, a fixed
calibration follows every round, and wall_s is the median of round time
over calibration time, times the calibration's reference time.
With --trace 0 the end-to-end metrics are printed; with --trace 1 the run
first repeats the untraced rounds, then the same rounds again with every
public champagne function traced, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(BENCH, "out")
SETUP_REPEATS = 3
# reference time of calibration(): about its median on the 2.1 GHz Xeon VM
# of bench/README.md, where the median of a run ranged over 0.07-0.11 s
CALIBRATION_S = 0.1


def program_environment() -> None:
    """The program's defaults: no CHAMPAGNE_WORKERS, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("CHAMPAGNE_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))


def import_program():
    sys.path.insert(0, SRC)
    import champagne
    where = os.path.dirname(os.path.abspath(champagne.__file__))
    if where != os.path.join(SRC, "champagne"):
        raise ImportError(f"champagne imported from {where}, not from {SRC}")


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one set-up in a fresh interpreter: start, import,
    inputs, and the workload's prepare step."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--setup-only"], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def calibration() -> None:
    """Fixed interpreter-bound work, made of the small-array numpy calls
    that dominate the monodromy rounds: pairwise distances, a flattened
    argsort and a least-squares solve on 40 points, 900 times.  It uses
    no champagne code, so a change to the program cannot change it."""
    import numpy as np
    pts = np.random.default_rng(0).random((40, 2))
    ones = np.column_stack([pts, np.ones(len(pts))])
    for _ in range(900):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.argsort(dist, axis=None)
        np.linalg.lstsq(ones, pts, rcond=None)


def timed_rounds(wl, inp, seconds: float, between=(),
                 calibrate: bool = False):
    """Whole rounds within `seconds` of timed work: at least one, and
    another only if a round as long as the last would still end in time.
    The untimed calls in `between` run one at each equal share of the
    timed work, the first before the first round, the rest when the
    rounds have taken their share; any left over run at the end.  With
    `calibrate`, the calibration runs after every round.
    Returns (round times, rounds, calibration times)."""
    times, rounds, cal = [], [], []
    pending = list(between)
    shares = len(pending)
    if calibrate:
        calibration()                   # warm-up: first calls are slower
    while True:
        spent = sum(times)
        while pending and spent >= seconds * (shares - len(pending)) / shares:
            pending.pop(0)()
        if times and spent + times[-1] > seconds:
            break
        t0 = time.perf_counter()
        rounds.append(wl.round(inp, OUTDIR))
        times.append(time.perf_counter() - t0)
        if calibrate:
            t0 = time.perf_counter()
            calibration()
            cal.append(time.perf_counter() - t0)
    for call in pending:
        call()
    return times, rounds, cal


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="run one set-up and exit (used to time set-up)")
    args = p.parse_args(argv)

    program_environment()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import champagne from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    os.makedirs(OUTDIR, exist_ok=True)
    if args.setup_only:
        wl.prepare(wl.inputs(args.seed), OUTDIR)
        return 0

    setup = []
    inp = wl.inputs(args.seed)
    times, rounds, cal = timed_rounds(
        wl, inp, args.seconds,
        [lambda: setup.append(time_setup(args.workload, args.seed))]
        * SETUP_REPEATS, wl.calibrated)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(times)
    print(f"{len(times)} rounds, median {wall:.4f} s", file=sys.stderr)
    if wl.calibrated:
        # round time in units of the calibration that followed it, at the
        # calibration's reference time
        wall_cal = CALIBRATION_S * statistics.median(
            t / c for t, c in zip(times, cal))
        print(f"calibration median {statistics.median(cal):.4f} s; "
              f"calibrated round {wall_cal:.4f} s", file=sys.stderr)
    else:
        wall_cal = wall

    if args.trace:
        from tracer import Tracer
        tr = Tracer()
        tr.install()
        try:
            t_times, t_rounds, _ = timed_rounds(wl, inp, args.seconds)
        finally:
            tr.uninstall()
        t_wall = statistics.median(t_times)
        layer = tr.layer_metrics(len(t_rounds))
        layer["trace.overhead_s"] = t_wall - wall
        layer["trace.covered_share"] = tr.root_time() / sum(t_times)
        tr.write(os.path.join(OUTDIR, f"trace-{args.workload}-"
                              f"{args.seed}.json"),
                 dict(workload=args.workload, seed=args.seed,
                      rounds=len(t_rounds), round_s=t_times))
        rounds += t_rounds
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            per_layer = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_cal, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "results_per_s": {"value": rounds[-1].results / wall_cal,
                              "unit": "1/s"},
        }

    failures = wl.check(inp, rounds[-1], OUTDIR)
    for msg in failures:
        print("CHECK FAILED: " + msg, file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
