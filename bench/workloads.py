"""The three benchmark workloads: inputs from a seed, set-up, one round of
timed work, and the checks on a round's outputs.

A round is a fixed list of operations; a run repeats whole rounds.  An
operation that raises or exits non-zero counts as failed and leaves no
output for the checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

from champagne import bohr_sommerfeld as bs
from champagne import cli
from champagne import gap_analysis as ga
from champagne import radial_spectrum as rs

import checks

SQRT2 = math.sqrt(2.0)


class Round:
    """Outputs of one round and its operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.results = 0        # eigenvalues delivered or loops completed
        self.out = {}

    def op(self, key, fn, *args, **kwargs):
        self.attempted += 1
        try:
            value = fn(*args, **kwargs)
        except Exception:       # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        self.out[key] = value
        return value


@contextlib.contextmanager
def capture(module, name):
    """Keep every value returned through module.name while active."""
    inner = getattr(module, name)
    got = []

    def keep(*args, **kwargs):
        value = inner(*args, **kwargs)
        got.append(value)
        return value

    setattr(module, name, keep)
    try:
        yield got
    finally:
        setattr(module, name, inner)


def table_columns(table) -> dict:
    pts = table.points
    return {"h": [p.h for p in pts], "n": [p.n for p in pts],
            "k": [p.k for p in pts], "E1": [p.E1 for p in pts],
            "E2": [p.E2 for p in pts], "x": [p.x for p in pts]}


class FocusDeep:
    """n = 0 lines in the smallest-gap window |x| <= 2.5 at four h through
    smallest_gap_scan, plus two short harmonic-oscillator lines."""

    calibrated = False

    H_LIST = (1e-2, 1e-3, 1e-4, 2e-5)
    X_HALF = 2.5
    HARMONIC_H = (1e-4, 1e-5)
    HARMONIC_LEVELS = 6

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"harmonic_n": [int(rng.integers(-6, 7))
                               for _ in self.HARMONIC_H]}

    def prepare(self, inp, outdir):
        pass

    def harmonic_window(self, h, n):
        return 0.0, h * (2 * self.HARMONIC_LEVELS + abs(n))

    def round(self, inp, outdir) -> Round:
        r = Round()
        # smallest_gap_scan returns only the minimum per h; the lines it
        # solves are kept for the checks
        with capture(ga, "joint_spectrum") as lines:
            scan = r.op("scan", ga.smallest_gap_scan, list(self.H_LIST),
                        x_half_window=self.X_HALF)
        if scan is not None:
            r.out["lines"] = lines
            r.results += sum(len(t.points) for t in lines)
        pot = rs.PotentialSpec.harmonic_test()
        for h, n in zip(self.HARMONIC_H, inp["harmonic_n"]):
            t = r.op(("harmonic", h), rs.joint_spectrum, h, (n, n),
                     self.harmonic_window(h, n), potential=pot)
            if t is not None:
                r.results += len(t.points)
        return r

    def check(self, inp, r: Round, outdir) -> list:
        fails = []
        if "scan" in r.out:
            scan = r.out["scan"]
            xs = {}
            for t in r.out["lines"]:
                line = t.line(0)
                fails += checks.check_focus_line(
                    t.h, 0, [p.k for p in line], [p.x for p in line])
                xs[t.h] = np.array([p.x for p in line])
            fails += checks.check_smallest_gap(
                xs, self.X_HALF, {w.h: w.gap_min_measured for w in scan.rows},
                scan.slope)
        for h, n in zip(self.HARMONIC_H, inp["harmonic_n"]):
            t = r.out.get(("harmonic", h))
            if t is not None:
                line = t.line(n)
                fails += checks.check_harmonic(
                    h, n, [p.k for p in line], [p.E1 for p in line],
                    self.harmonic_window(h, n)[1])
        return fails


class JointTable:
    """Lines |n| <= 10, |x| <= 27 at h = 1e-3, written to CSV, with the
    analysis layers run on the table and one Monte Carlo volume."""

    calibrated = False

    H = 1e-3
    N_MAX = 10
    X_HALF = 27.0
    FIT_LINES = range(-4, 5)
    FIT_WINDOW = (-10.0, 10.0)
    VOLUME_WINDOW = ((18.0, 26.0), (-3.0, 3.0))
    VOLUME_SAMPLES = 10_000_000

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        t1_lo = float(rng.uniform(4.0, 5.0))
        t1 = (t1_lo, t1_lo + 9.0)
        if rng.random() < 0.5:
            t1 = (-t1[1], -t1[0])
        c = int(rng.integers(-2, 3))
        return {"lines": sorted(int(v) for v in
                                rng.choice(np.arange(-4, 5), 3,
                                           replace=False)),
                "weyl": (t1, (c - 2.0, c + 2.0)),
                "volume_seed": int(rng.integers(1 << 31))}

    def prepare(self, inp, outdir):
        pass

    def round(self, inp, outdir) -> Round:
        r = Round()
        e1 = self.X_HALF * SQRT2 * self.H
        table = r.op("table", rs.joint_spectrum, self.H,
                     (-self.N_MAX, self.N_MAX), (-e1, e1))
        if table is None:
            return r
        r.results += len(table.points)
        csv = os.path.join(outdir, "joint-table.csv")
        r.op("csv", rs.write_spectrum_csv, table, csv)
        model = r.op("model", bs.fit_model, table, n_set=self.FIT_LINES,
                     x_window=self.FIT_WINDOW)
        records = []
        for n in inp["lines"]:
            if model is not None:
                lo, hi = self.FIT_WINDOW
                r.op(("predict", n), bs.predict_line, n, model,
                     (lo - 0.5, hi + 0.5))
            recs = r.op(("gaps", n), ga.measure_gaps, table, n,
                        self.FIT_WINDOW)
            records += recs or []
        r.op("verdict", ga.gap_verdict, {self.H: records})
        t1, t2 = inp["weyl"]
        r.op("weyl", ga.weyl_count, table, ga.Window(t1[0], t1[1],
                                                     t2[0], t2[1]))
        (v1, v2) = self.VOLUME_WINDOW
        r.op("volume", ga.dh_volume, ga.Window(v1[0], v1[1], v2[0], v2[1]),
             self.H, samples=self.VOLUME_SAMPLES, seed=inp["volume_seed"])
        return r

    def check(self, inp, r: Round, outdir) -> list:
        out = r.out
        if "table" not in out:
            return []
        table = out["table"]
        cols = {k: np.array(v) for k, v in table_columns(table).items()}
        fails = checks.check_joint_table(self.H, cols["n"], cols["k"],
                                         cols["E1"], cols["x"])
        if "csv" in out:
            fails += checks.check_csv(os.path.join(outdir, "joint-table.csv"),
                                      cols)
        if "model" in out:
            fails += checks.check_fit(out["model"].residual,
                                      out["model"].warning)
        for n in inp["lines"]:
            if ("predict", n) in out:
                fails += checks.check_prediction(
                    n, cols["x"][cols["n"] == n],
                    [x for _, x in out[("predict", n)]])
        if "weyl" in out:
            t1, t2 = inp["weyl"]
            fails += checks.check_weyl(self.H, cols["n"], cols["x"], t1, t2,
                                       out["weyl"][0])
        if "volume" in out:
            est = out["volume"]
            fails += checks.check_volume(self.H, *self.VOLUME_WINDOW,
                                         est.mu_over_norm, est.std_error)
        return fails


class MonodromyLoops:
    """In-process `champagne` CLI calls on a precomputed h = 5e-3 table:
    enclosing and non-enclosing unwinds, classical monodromy circles, and
    regularized actions next to the critical value.

    The rounds are interpreter-bound, and the speed of such code on a
    shared host drifts far more than that of the LAPACK-bound rounds of
    the other workloads, so their time is reported against a calibration
    run after every round (see run.py)."""

    calibrated = True

    H = 5e-3
    N_MAX = 24
    X_HALF = 27.0
    LOOPS_PER_KIND = 4
    # (loop radius, polygon seed) of the enclosing unwinds.  They do not
    # depend on the benchmark seed: about one seeded draw in 150 with
    # radius in [17, 22] fails in the chart chain (see CHANGES.md)
    ENCLOSING = ((15.0, 1), (17.0, 2), (19.0, 3), (21.0, 4))
    ACTION_RADIUS = 1e-6
    ACTION_POINTS = 2

    def inputs(self, seed: int) -> dict:
        # loop sizes are stratified, one per equal slice of each range, so
        # that the cost of a round hardly depends on the seed
        rng = np.random.default_rng(seed)
        k = self.LOOPS_PER_KIND

        def sizes(lo, hi):
            return [float(lo + (hi - lo) * (i + rng.random()) / k)
                    for i in range(k)]

        enclosing = [dict(radius=r, seed=s) for r, s in self.ENCLOSING]
        # non-enclosing loops stay on the E1 > 0 side: on the E1 < 0 side
        # some of them fail in the chart chain (see CHANGES.md)
        outside = [dict(radius=r, center_x=float(rng.uniform(12.0, 16.0)),
                        center_n=int(rng.integers(-10, 11)),
                        seed=int(rng.integers(1 << 20)))
                   for r in sizes(4.0, 7.0)]
        around = [dict(center_e=float(rng.uniform(-0.02, 0.02)),
                       center_l=float(rng.uniform(-0.02, 0.02)), radius=r)
                  for r in sizes(0.12, 0.2)]
        away = [dict(center_e=float(rng.uniform(0.3, 0.6)),
                     center_l=float(rng.uniform(-0.1, 0.1)), radius=r)
                for r in sizes(0.03, 0.08)]
        phi = rng.uniform(0.0, 2.0 * math.pi, self.ACTION_POINTS)
        return {"enclosing": enclosing, "outside": outside,
                "around": around, "away": away,
                "actions": [(self.ACTION_RADIUS * math.cos(p),
                             self.ACTION_RADIUS * math.sin(p)) for p in phi]}

    def csv_path(self, outdir):
        return os.path.join(outdir, "monodromy-table.csv")

    def prepare(self, inp, outdir):
        e1 = self.X_HALF * SQRT2 * self.H
        table = rs.joint_spectrum(self.H, (-self.N_MAX, self.N_MAX),
                                  (-e1, e1))
        rs.write_spectrum_csv(table, self.csv_path(outdir))

    def quantum_calls(self, inp, outdir):
        calls = []
        for kind, loops in (("enclosing", inp["enclosing"]),
                            ("outside", inp["outside"])):
            for i, loop in enumerate(loops):
                out = os.path.join(outdir, f"unwind-{kind}-{i}.json")
                argv = ["unwind", "--spectrum", self.csv_path(outdir),
                        f"--loop-radius={loop['radius']!r}",
                        "--seed", str(loop["seed"]), "--out", out]
                if kind == "outside":
                    argv += ["--non-enclosing",
                             f"--center-x={loop['center_x']!r}",
                             f"--center-n={loop['center_n']}"]
                calls.append((kind == "enclosing", out, argv))
        return calls

    def classical_calls(self, inp):
        return [(kind == "around",
                 ["monodromy", f"--center-e={c['center_e']!r}",
                  f"--center-l={c['center_l']!r}",
                  f"--radius={c['radius']!r}"])
                for kind in ("around", "away") for c in inp[kind]]

    @staticmethod
    def call(argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"champagne {' '.join(argv)} exited {code}")
        return buf.getvalue()

    def round(self, inp, outdir) -> Round:
        r = Round()
        for i, (_, _, argv) in enumerate(self.quantum_calls(inp, outdir)):
            if r.op(("unwind", i), self.call, argv) is not None:
                r.results += 1
        for i, (_, argv) in enumerate(self.classical_calls(inp)):
            if r.op(("monodromy", i), self.call, argv) is not None:
                r.results += 1
        es = ",".join(repr(e) for e, _ in inp["actions"])
        ls = ",".join(repr(l) for _, l in inp["actions"])
        r.op("actions", self.call,
             ["actions", f"--e-list={es}", f"--l-list={ls}",
              "--out", os.path.join(outdir, "actions.csv")])
        return r

    def check(self, inp, r: Round, outdir) -> list:
        fails = []
        for i, (enc, path, _) in enumerate(self.quantum_calls(inp, outdir)):
            if ("unwind", i) not in r.out:
                continue
            with open(path) as fh:
                res = json.load(fh)
            fails += checks.check_quantum_loop(
                f"unwind {i}", enc, res["monodromy"], res["monodromy_shift"],
                res["counts"], res["unwound_vertices"])
        for i, (enc, _) in enumerate(self.classical_calls(inp)):
            if ("monodromy", i) not in r.out:
                continue
            res = json.loads(r.out[("monodromy", i)].strip().splitlines()[-1])
            fails += checks.check_classical_loop(f"monodromy {i}", enc,
                                                 res["winding"],
                                                 res["matrix"])
        if "actions" in r.out:
            data = np.loadtxt(os.path.join(outdir, "actions.csv"),
                              delimiter=",", skiprows=1, ndmin=2)
            fails += checks.check_regularized_action(data[:, 7])
        return fails


WORKLOADS = {"focus-deep": FocusDeep(), "joint-table": JointTable(),
             "monodromy-loops": MonodromyLoops()}
