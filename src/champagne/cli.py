"""Command-line front end: batch computations and figure pipelines.

Every leaf subcommand (`spectrum`, `bs fit`, `reproduce cusp`, ...) is one
entry of the command table: its handler, its help and its flags, each
flag declared once as name -> (type, default).  The parser, the casts of
config-file values and the defaults all come from that entry, so a
command accepts exactly the flags it reads; argparse rejects any other,
and no flag may be abbreviated.  Each command resolves its configuration
from three layers (flags over a flat key=value config file over the
defaults), echoes the resolved values, and writes deterministic outputs;
main writes <out>.config.json, the resolved config and the version, for
every command that takes --out.  Exit codes: 0 success, 1 computation
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .errors import (ChampagneError, ConfigurationError, DomainError,
                     _write_csv, _write_json, write_plot_data)
from . import special_functions as sf
from . import classical_actions as ca
from . import radial_spectrum as rs
from . import bohr_sommerfeld as bs
from . import gap_analysis as ga
from . import monodromy_lattice as ml
from . import experiments as ex


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _resolve(args) -> dict:
    """flags > config file > defaults; every value echoed.  A file key
    that no command declares raises ConfigurationError; one that another
    command declares is ignored, so one file may serve several commands."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    unknown = sorted(file_cfg.keys() - {
        key for _, _, flags in _COMMANDS.values() for key in flags})
    if unknown:
        raise ConfigurationError(
            f"config file {args.config}: no command has the keys "
            + ", ".join(unknown))
    cfg = {}
    for key, (typ, default) in args.flags.items():
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
        elif key not in file_cfg:
            cfg[key] = default
        elif typ is bool:
            value = file_cfg[key].lower()
            if value not in ("1", "true", "yes", "0", "false", "no"):
                raise ConfigurationError(
                    f"bad config value {key}={file_cfg[key]!r}: an on/off "
                    "flag takes 1, true, yes, 0, false or no")
            cfg[key] = value in ("1", "true", "yes")
        else:
            # cast by the flag's type, as if given on the line
            try:
                cfg[key] = typ(file_cfg[key])
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad config value {key}={file_cfg[key]!r}") from exc
    print("resolved config: " + json.dumps(cfg, sort_keys=True, default=str))
    return cfg


def _float_list(cfg, key) -> list:
    """The numbers of a comma-separated list flag; cfg keeps the string."""
    try:
        return [float(v) for v in cfg[key].split(",")]
    except ValueError as exc:
        raise ConfigurationError(
            f"bad --{key.replace('_', '-')} value {cfg[key]!r}: expected "
            "comma-separated numbers") from exc


# --- subcommands -----------------------------------------------------------

def _cmd_spectrum(cfg) -> int:
    config = None
    if cfg["grid_points"] is not None or cfg["r_max"] is not None:
        base = rs.default_config(cfg["h"], cfg["e_max"])
        r_max = base.r_max if cfg["r_max"] is None else cfg["r_max"]
        # a wall moved alone keeps the mesh density of default_config
        grid = cfg["grid_points"]
        if grid is None:
            grid = max(64, math.ceil(r_max / (base.r_max / base.grid_points)))
        config = rs.DiscretizationConfig(r_max=r_max, grid_points=grid)
    table = rs.joint_spectrum(cfg["h"], (cfg["n_min"], cfg["n_max"]),
                              (cfg["e_min"], cfg["e_max"]), config=config)
    rs.write_spectrum_csv(table, cfg["out"])
    print(f"{len(table.points)} eigenvalues -> {cfg['out']}")
    return 0


def _cmd_bs_fit(cfg) -> int:
    table = rs.read_spectrum_csv(cfg["spectrum"])
    model = bs.fit_model(table, x_window=(cfg["x_min"], cfg["x_max"]))
    model.to_json(cfg["out"])
    print(f"B={model.B:.6f} C={model.C:.6f} "
          f"offset={model.offset_mod_2pi:.6f} residual={model.residual:.2e}"
          + (" WARNING" if model.warning else ""))
    return 0


def _cmd_bs_predict(cfg) -> int:
    model = bs.QuantizationModel.from_json(cfg["model"])
    pred = bs.predict_line(cfg["n"], model, (cfg["x_min"], cfg["x_max"]))
    _write_csv(cfg["out"], ("k", "x"), pred)
    print(f"{len(pred)} predicted eigenvalues -> {cfg['out']}")
    return 0


def _cmd_gaps(cfg) -> int:
    table = rs.read_spectrum_csv(cfg["spectrum"])
    recs = ga.measure_gaps(table, cfg["n"], (cfg["x_min"], cfg["x_max"]))
    if not recs:
        raise DomainError(f"no eigenvalues on line n={cfg['n']} in the x "
                          f"window [{cfg['x_min']:g}, {cfg['x_max']:g}]")
    _write_csv(cfg["out"], ga.GapRecord, recs)
    eg = max(r.rel_err_general for r in recs)
    ec = max(r.rel_err_champagne for r in recs)
    print(f"{len(recs)} gaps; max rel err general={eg:.3%} "
          f"champagne={ec:.3%} -> {cfg['out']}")
    return 0


def _cmd_smallest_gap(cfg) -> int:
    scan = ga.smallest_gap_scan(_float_list(cfg, "h_list"))
    _write_csv(cfg["out"], ga.SmallestGapRow, scan.rows)
    print(f"slope={scan.slope:.6f} (1/(2 pi sqrt2)={1/(2*math.pi*math.sqrt(2)):.6f}) "
          f"R^2={scan.r_squared:.5f} -> {cfg['out']}")
    return 0


def _window(cfg) -> ga.Window:
    return ga.Window(cfg["t1_min"], cfg["t1_max"], cfg["t2_min"],
                     cfg["t2_max"])


def _weyl_csv(path: str, rows) -> None:
    """The Weyl counts of (h, N, predicted) triples, one row each."""
    _write_csv(path, ("h", "lnh_abs", "N", "predicted", "residual"),
               [(h, abs(math.log(h)), n, pred, n - pred)
                for h, n, pred in rows])


def _cmd_weyl(cfg) -> int:
    table = rs.read_spectrum_csv(cfg["spectrum"])
    n, pred = ga.weyl_count(table, _window(cfg))
    _weyl_csv(cfg["out"], [(table.h, n, pred)])
    print(f"N={n} predicted={pred:.3f} residual={n - pred:+.3f} "
          f"-> {cfg['out']}")
    return 0


def _cmd_dh_volume(cfg) -> int:
    est = ga.dh_volume(_window(cfg), cfg["h"], samples=cfg["samples"],
                       seed=cfg["seed"])
    print(json.dumps(dict(mu_over_norm=est.mu_over_norm,
                          asymptotic=est.asymptotic,
                          std_error=est.std_error, samples=est.samples,
                          ratio=est.mu_over_norm / est.asymptotic),
                     sort_keys=True))
    return 0


def _cmd_actions(cfg) -> int:
    es = _float_list(cfg, "e_list")
    ls = _float_list(cfg, "l_list")
    if len(ls) == 1:
        ls = ls * len(es)
    if len(es) != len(ls):
        raise ConfigurationError("e_list and l_list lengths differ")
    samples = [ca.action_sample(e, l) for e, l in zip(es, ls)]
    _write_csv(cfg["out"], ca.ActionSample, samples)
    print(f"{len(samples)} samples -> {cfg['out']}")
    return 0


def _cmd_monodromy(cfg) -> int:
    loop = ca.circle_loop(cfg["center_e"], cfg["center_l"], cfg["radius"],
                          cfg["segments"])
    winding = ca.rotation_winding(loop)
    matrix = ca.classical_monodromy(winding)
    print(json.dumps(dict(winding=winding, matrix=matrix.tolist()),
                     sort_keys=True))
    return 0


def _make_polygon(cfg, table):
    return ml.make_loop_polygon(
        table, cfg["loop_radius"], n_top=cfg["n_top"], seed=cfg["seed"],
        center=(cfg["center_x"], cfg["center_n"]),
        enclosing=not cfg["non_enclosing"])


def _unwind_json(poly, res, counts) -> dict:
    return dict(
        charts=[dict(center=list(c.center), linear=c.linear.tolist(),
                     offset=c.offset.tolist(), radius=c.radius, h=c.h,
                     residual=c.residual) for c in res.charts],
        monodromy=res.monodromy.matrix.tolist(),
        monodromy_shift=res.monodromy.shift.tolist(),
        unwound_vertices=res.vertices.tolist(),
        polygon=poly[["E1", "E2"]].tolist(),
        counts=dict(spec=counts[0], pick=counts[1]))


def _cmd_unwind(cfg) -> int:
    table = rs.read_spectrum_csv(cfg["spectrum"])
    poly = _make_polygon(cfg, table)
    res = ml.unwind(poly, table)
    counts = ml.count_in_polygon(table, poly, res)
    _write_json(cfg["out"], _unwind_json(poly, res, counts))
    print(f"monodromy {res.monodromy.matrix.tolist()} "
          f"counts spec={counts[0]} pick={counts[1]} -> {cfg['out']}")
    return 0


def _cmd_count(cfg) -> int:
    table = rs.read_spectrum_csv(cfg["spectrum"])
    poly = _make_polygon(cfg, table)
    n_spec, n_pick = ml.count_in_polygon(table, poly,
                                         ml.unwind(poly, table))
    print(json.dumps(dict(spec=n_spec, pick=n_pick,
                          equal=n_spec == n_pick), sort_keys=True))
    return 0


def _cmd_special(cfg) -> int:
    op, eps, n = cfg["op"], cfg["eps"], cfg["n"]
    if not math.isfinite(eps):
        raise ConfigurationError(f"bad --eps value {eps!r}: expected a "
                                 "finite number")
    if op == "C":
        c = sf.fourier_constant(eps, n)
        print("C = %.12g%+.12gi  modulus %.12f" % (c.real, c.imag, abs(c)))
    elif op == "psi":
        print("%.17g" % sf.psi_n(eps, n))
    elif op == "psi-prime":
        print("%.17g" % sf.psi_n_prime(eps, n))
    elif op == "hankel":
        print("residual %.3e" % sf.verify_mellin_hankel(eps, n))
    else:
        raise ConfigurationError(f"unknown special op {op!r}")
    return 0


# --- figure pipelines -------------------------------------------------------
# each solves the tables its experiment names, writes the measurements and
# prints the verdict; inputs and bounds live in experiments.py

def _verdict(fig, out) -> int:
    print(f"{fig}: {out.detail}")
    print(f"reproduce {fig}: {'PASS' if out.ok else 'FAIL'}")
    return 0 if out.ok else 1


def _reproduce_cusp(cfg) -> int:
    h = cfg["h"]
    out = ex.gap_law([ex.gap_law_lines(h).solve()])
    winner, records = out.measured
    recs = records[h]
    write_plot_data(cfg["prefix"] + "cusp_measured.dat",
                    [r.x_mid for r in recs],
                    [r.gap_measured for r in recs])
    key = ("gap_pred_champagne" if winner == bs.VARIANT_CHAMPAGNE
           else "gap_pred_general")
    write_plot_data(cfg["prefix"] + "cusp_predicted.dat",
                    [r.x_mid for r in recs],
                    [getattr(r, key) for r in recs])
    return _verdict("cusp", out)


def _reproduce_cusp_z(cfg) -> int:
    out = ex.gap_law([ex.gap_law_lines(h).solve() for h in ex.GAP_LAW_H])
    for h, recs in out.measured[1].items():
        write_plot_data(cfg["prefix"] + f"cusp_z_{h:g}.dat",
                        [r.x_mid for r in recs],
                        [r.gap_measured for r in recs])
    return _verdict("cusp-z", out)


def _reproduce_gaps_formule(cfg) -> int:
    tables = [ex.smallest_gap_lines(h).solve() for h in ex.SMALLEST_GAP_H]
    out = ex.smallest_gap(tables)
    write_plot_data(cfg["prefix"] + "gaps_formule.dat",
                    [r.lnh_abs for r in out.measured.rows],
                    [1.0 / r.gap_min_measured for r in out.measured.rows])
    rule = ex.bohr_sommerfeld([t for t in tables if t.h in ex.BS_RULE_H])
    return max(_verdict("gaps-formule", out),
               _verdict("gaps-formule Bohr-Sommerfeld rule", rule))


def _reproduce_weyl(cfg) -> int:
    out = ex.weyl([ex.weyl_lines(h).solve() for h in ex.WEYL_H])
    rows = out.measured
    _weyl_csv(cfg["prefix"] + "weyl.csv", rows)
    write_plot_data(cfg["prefix"] + "weyl.dat",
                    [abs(math.log(h)) for h, _, _ in rows],
                    [n / abs(math.log(h)) for h, n, _ in rows])
    return _verdict("weyl", out)


def _reproduce_unwinding(cfg) -> int:
    table = ex.UNWINDING_LINES.solve()
    out = ex.quantum_loop(table, ex.UNWINDING_RADIUS, cfg["seed"])
    _write_json(cfg["prefix"] + "unwinding.json",
                _unwind_json(*out.measured))
    return _verdict("unwinding", out)


# --- command table and parser -------------------------------------------------

_X_WINDOW = dict(x_min=(float, -10.0), x_max=(float, 10.0))
_LOOP = dict(spectrum=(str, "spectrum.csv"), loop_radius=(float, 20.0),
             n_top=(int, None), seed=(int, 0), center_x=(float, 0.0),
             center_n=(float, 0.0), non_enclosing=(bool, False))
_PREFIX = dict(prefix=(str, ""))
_HELP = {"grid_points": "mesh intervals m; levels are solved on m and 2m",
         "r_max": "the wall; moved alone, it keeps the mesh density"}

# leaf subcommand -> (handler, help, {flag: (type, default)}).  A bool flag
# takes no value on the command line and 1/true/yes or 0/false/no in a
# config file.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "compute a joint spectrum window", dict(
        h=(float, 1e-3), n_min=(int, -10), n_max=(int, 10),
        e_min=(float, -0.02), e_max=(float, 0.02), grid_points=(int, None),
        r_max=(float, None), out=(str, "spectrum.csv"))),
    "bs fit": (_cmd_bs_fit, "fit the model to a spectrum", dict(
        spectrum=(str, "spectrum.csv"), **_X_WINDOW,
        out=(str, "model.json"))),
    "bs predict": (_cmd_bs_predict, "predict one line from a model", dict(
        model=(str, "model.json"), n=(int, 0), **_X_WINDOW,
        out=(str, "predicted.csv"))),
    "gaps": (_cmd_gaps, "measured vs predicted gaps on a line", dict(
        spectrum=(str, "spectrum.csv"), n=(int, 0), **_X_WINDOW,
        out=(str, "gaps.csv"))),
    "smallest-gap": (_cmd_smallest_gap, "smallest-gap scaling scan", dict(
        h_list=(str, "1e-2,1e-3,1e-4"), out=(str, "smallest_gap.csv"))),
    "weyl": (_cmd_weyl, "log-Weyl count in a window", dict(
        spectrum=(str, "spectrum.csv"), t1_min=(float, -10.0),
        t1_max=(float, 10.0), t2_min=(float, -3.0), t2_max=(float, 3.0),
        out=(str, "weyl.csv"))),
    "dh-volume": (_cmd_dh_volume, "Monte Carlo phase-space volume", dict(
        h=(float, 1e-3), t1_min=(float, 18.0), t1_max=(float, 26.0),
        t2_min=(float, -3.0), t2_max=(float, 3.0),
        samples=(int, 10_000_000), seed=(int, 20260823))),
    "actions": (_cmd_actions, "classical action samples", dict(
        e_list=(str, "0.1"), l_list=(str, "0.05"), out=(str, "actions.csv"))),
    "monodromy": (_cmd_monodromy, "classical monodromy of a loop", dict(
        center_e=(float, 0.0), center_l=(float, 0.0), radius=(float, 0.2),
        segments=(int, 64))),
    "unwind": (_cmd_unwind, "unwind a spectral loop", dict(
        **_LOOP, out=(str, "unwind.json"))),
    "count": (_cmd_count, "N_spec vs N_pick in a spectral loop", _LOOP),
    "special": (_cmd_special, "special-function evaluations", dict(
        op=(str, "C"), eps=(float, 0.0), n=(int, 0))),
    "reproduce cusp": (_reproduce_cusp, "gap law at one h", dict(
        h=(float, ex.GAP_LAW_H[0]), **_PREFIX)),
    "reproduce cusp-z": (_reproduce_cusp_z, "gap law across h", _PREFIX),
    "reproduce gaps-formule": (_reproduce_gaps_formule,
                               "smallest-gap scaling", _PREFIX),
    "reproduce weyl": (_reproduce_weyl, "log-Weyl count", _PREFIX),
    "reproduce unwinding": (_reproduce_unwinding,
                            "quantum monodromy and counting", dict(
                                seed=(int, 0), **_PREFIX)),
}
_GROUPS = {"bs": "singular Bohr-Sommerfeld model",
           "reproduce": "end-to-end figure pipelines"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="champagne", allow_abbrev=False,
        description="Numerical laboratory for the quantum champagne bottle")
    root.add_argument("--config", help="flat key=value config file")
    subs = {"": root.add_subparsers(dest="command", required=True)}
    for name, (func, help_, flags) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=_GROUPS[group], allow_abbrev=False
            ).add_subparsers(dest="command", required=True)
        p = subs[group].add_parser(leaf, help=help_, allow_abbrev=False)
        for key, (typ, _) in flags.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=typ, help=_HELP.get(key))
        p.set_defaults(func=func, flags=flags)
    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        code = args.func(cfg)
        if "out" in args.flags:
            _write_json(cfg["out"] + ".config.json",
                        {"config": cfg, "version": __version__})
        return code
    except (ChampagneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
