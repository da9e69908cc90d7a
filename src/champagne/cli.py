"""Command-line front end: batch computations and figure pipelines.

Every subcommand resolves its configuration from three layers (flags over
a flat key=value config file over built-in defaults), echoes the resolved
values, and writes deterministic outputs; file outputs get a JSON sidecar
with the full resolved config.  Exit codes: 0 success, 1 computation
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import ChampagneError, ConfigurationError
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


def _resolve(args, defaults: dict) -> dict:
    """flags > config file > defaults; every value echoed."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif key not in file_cfg:
            cfg[key] = default
        elif isinstance(default, bool):
            cfg[key] = file_cfg[key].lower() in ("1", "true", "yes")
        else:
            # cast by the flag's argparse type, as if given on the line
            cast = args.flag_types.get(key) or str
            try:
                cfg[key] = cast(file_cfg[key])
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad config value {key}={file_cfg[key]!r}") from exc
    print("resolved config: " + json.dumps(cfg, sort_keys=True, default=str))
    return cfg


def _sidecar(path: str, cfg: dict) -> None:
    with open(path + ".config.json", "w") as fh:
        json.dump({"config": cfg, "version": __version__}, fh,
                  indent=2, sort_keys=True, default=str)
        fh.write("\n")


# --- subcommands -----------------------------------------------------------

def _cmd_spectrum(args) -> int:
    cfg = _resolve(args, dict(h=1e-3, n_min=-10, n_max=10, e_min=-0.02,
                              e_max=0.02, grid_points=None, r_max=None,
                              workers=None, out="spectrum.csv"))
    config = None
    if cfg["grid_points"] is not None or cfg["r_max"] is not None:
        base = rs.default_config(cfg["h"], cfg["e_max"])
        config = rs.DiscretizationConfig(
            r_max=cfg["r_max"] or base.r_max,
            grid_points=cfg["grid_points"] or base.grid_points,
            h=cfg["h"], scheme=base.scheme, richardson=base.richardson,
            e_max=cfg["e_max"])
    table = rs.joint_spectrum(cfg["h"], (cfg["n_min"], cfg["n_max"]),
                              (cfg["e_min"], cfg["e_max"]), config=config,
                              workers=cfg["workers"])
    rs.write_spectrum_csv(table, cfg["out"])
    _sidecar(cfg["out"], cfg)
    print(f"{len(table.points)} eigenvalues -> {cfg['out']}")
    return 0


def _cmd_bs(args) -> int:
    if args.bs_op == "fit":
        cfg = _resolve(args, dict(spectrum="spectrum.csv", x_min=-10.0,
                                  x_max=10.0, out="model.json"))
        table = rs.read_spectrum_csv(cfg["spectrum"])
        model = bs.fit_model(table, x_window=(cfg["x_min"], cfg["x_max"]))
        model.to_json(cfg["out"])
        _sidecar(cfg["out"], cfg)
        print(f"B={model.B:.6f} C={model.C:.6f} "
              f"offset={model.offset_mod_2pi:.6f} residual={model.residual:.2e}"
              + (" WARNING" if model.warning else ""))
        return 0
    cfg = _resolve(args, dict(model="model.json", n=0, x_min=-10.0,
                              x_max=10.0, out="predicted.csv"))
    model = bs.QuantizationModel.from_json(cfg["model"])
    pred = bs.predict_line(cfg["n"], model, (cfg["x_min"], cfg["x_max"]))
    with open(cfg["out"], "w") as fh:
        fh.write("k,x\n")
        for k, x in pred:
            fh.write("%d,%.17g\n" % (k, x))
    _sidecar(cfg["out"], cfg)
    print(f"{len(pred)} predicted eigenvalues -> {cfg['out']}")
    return 0


def _cmd_gaps(args) -> int:
    cfg = _resolve(args, dict(spectrum="spectrum.csv", n=0, x_min=-10.0,
                              x_max=10.0, out="gaps.csv"))
    table = rs.read_spectrum_csv(cfg["spectrum"])
    recs = ga.measure_gaps(table, cfg["n"], (cfg["x_min"], cfg["x_max"]))
    ga.write_gaps_csv(cfg["out"], recs)
    _sidecar(cfg["out"], cfg)
    if recs:
        eg = max(r.rel_err_general for r in recs)
        ec = max(r.rel_err_champagne for r in recs)
        print(f"{len(recs)} gaps; max rel err general={eg:.3%} "
              f"champagne={ec:.3%} -> {cfg['out']}")
    return 0


def _cmd_smallest_gap(args) -> int:
    cfg = _resolve(args, dict(h_list="1e-2,1e-3,1e-4", workers=None,
                              out="smallest_gap.csv"))
    h_list = [float(v) for v in str(cfg["h_list"]).split(",")]
    scan = ga.smallest_gap_scan(h_list, workers=cfg["workers"])
    with open(cfg["out"], "w") as fh:
        fh.write("h,lnh_abs,gap_min_measured,gap_min_general,"
                 "gap_min_champagne,x_at_min\n")
        for r in scan.rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (r.h, r.lnh_abs, r.gap_min_measured,
                        r.gap_min_general, r.gap_min_champagne, r.x_at_min))
    _sidecar(cfg["out"], cfg)
    print(f"slope={scan.slope:.6f} (1/(2 pi sqrt2)={1/(2*math.pi*math.sqrt(2)):.6f}) "
          f"R^2={scan.r_squared:.5f} -> {cfg['out']}")
    return 0


def _window(cfg) -> ga.Window:
    return ga.Window(cfg["t1_min"], cfg["t1_max"], cfg["t2_min"],
                     cfg["t2_max"])


def _cmd_weyl(args) -> int:
    cfg = _resolve(args, dict(spectrum="spectrum.csv", t1_min=-10.0,
                              t1_max=10.0, t2_min=-3.0, t2_max=3.0,
                              out="weyl.csv"))
    table = rs.read_spectrum_csv(cfg["spectrum"])
    n, pred = ga.weyl_count(table, _window(cfg))
    ga.write_weyl_csv(cfg["out"], [(table.h, n, pred)])
    _sidecar(cfg["out"], cfg)
    print(f"N={n} predicted={pred:.3f} residual={n - pred:+.3f} "
          f"-> {cfg['out']}")
    return 0


def _cmd_dh_volume(args) -> int:
    cfg = _resolve(args, dict(h=1e-3, t1_min=18.0, t1_max=26.0,
                              t2_min=-3.0, t2_max=3.0,
                              samples=10_000_000, seed=20260823))
    est = ga.dh_volume(_window(cfg), cfg["h"], samples=cfg["samples"],
                       seed=cfg["seed"])
    print(json.dumps(dict(mu_over_norm=est.mu_over_norm,
                          asymptotic=est.asymptotic,
                          std_error=est.std_error, samples=est.samples,
                          ratio=est.mu_over_norm / est.asymptotic),
                     sort_keys=True))
    return 0


def _cmd_actions(args) -> int:
    cfg = _resolve(args, dict(e_list="0.1", l_list="0.05",
                              out="actions.csv"))
    es = [float(v) for v in str(cfg["e_list"]).split(",")]
    ls = [float(v) for v in str(cfg["l_list"]).split(",")]
    if len(ls) == 1:
        ls = ls * len(es)
    if len(es) != len(ls):
        raise ConfigurationError("e_list and l_list lengths differ")
    samples = [ca.action_sample(e, l) for e, l in zip(es, ls)]
    ca.write_samples_csv(samples, cfg["out"])
    _sidecar(cfg["out"], cfg)
    print(f"{len(samples)} samples -> {cfg['out']}")
    return 0


def _cmd_monodromy(args) -> int:
    cfg = _resolve(args, dict(center_e=0.0, center_l=0.0, radius=0.2,
                              segments=64))
    loop = ca.circle_loop(cfg["center_e"], cfg["center_l"], cfg["radius"],
                          cfg["segments"])
    winding = ca.rotation_winding(loop)
    matrix = ca.classical_monodromy(loop)
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
        transitions=[dict(matrix=t.matrix.tolist(), shift=t.shift.tolist())
                     for t in res.transitions],
        monodromy=res.monodromy.matrix.tolist(),
        monodromy_shift=res.monodromy.shift.tolist(),
        unwound_vertices=res.vertices.tolist(),
        polygon=poly.vertex_points().tolist(),
        counts=dict(spec=counts[0], pick=counts[1]))


_POLY_DEFAULTS = dict(spectrum="spectrum.csv", loop_radius=20.0, n_top=None,
                      seed=0, center_x=0.0, center_n=0.0,
                      non_enclosing=False, out="unwind.json")


def _cmd_unwind(args) -> int:
    cfg = _resolve(args, _POLY_DEFAULTS)
    table = rs.read_spectrum_csv(cfg["spectrum"])
    poly = _make_polygon(cfg, table)
    res = ml.unwind(poly, table, table.h)
    counts = ml.count_in_polygon(table, poly, res)
    with open(cfg["out"], "w") as fh:
        json.dump(_unwind_json(poly, res, counts), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    _sidecar(cfg["out"], cfg)
    print(f"monodromy {res.monodromy.matrix.tolist()} "
          f"counts spec={counts[0]} pick={counts[1]} -> {cfg['out']}")
    return 0


def _cmd_count(args) -> int:
    cfg = _resolve(args, _POLY_DEFAULTS)
    table = rs.read_spectrum_csv(cfg["spectrum"])
    poly = _make_polygon(cfg, table)
    n_spec, n_pick = ml.count_in_polygon(table, poly,
                                         ml.unwind(poly, table, table.h))
    print(json.dumps(dict(spec=n_spec, pick=n_pick,
                          equal=n_spec == n_pick), sort_keys=True))
    return 0


def _cmd_special(args) -> int:
    cfg = _resolve(args, dict(op="C", eps=0.0, n=0))
    op, eps, n = cfg["op"], cfg["eps"], int(cfg["n"])
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

def _reproduce_cusp(cfg) -> bool:
    h = cfg["h"]
    out = ex.gap_law([ex.gap_law_lines(h).solve(cfg["workers"])])
    winner, records = out.measured
    recs = records[h]
    ga.write_plot_data(cfg["prefix"] + "cusp_measured.dat",
                       [r.x_mid for r in recs],
                       [r.gap_measured for r in recs])
    key = ("gap_pred_champagne" if winner == bs.VARIANT_CHAMPAGNE
           else "gap_pred_general")
    ga.write_plot_data(cfg["prefix"] + "cusp_predicted.dat",
                       [r.x_mid for r in recs],
                       [getattr(r, key) for r in recs])
    print(f"cusp: {out.detail}")
    return out.ok


def _reproduce_cusp_z(cfg) -> bool:
    out = ex.gap_law([ex.gap_law_lines(h).solve(cfg["workers"])
                      for h in ex.GAP_LAW_H])
    for h, recs in out.measured[1].items():
        ga.write_plot_data(cfg["prefix"] + f"cusp_z_{h:g}.dat",
                           [r.x_mid for r in recs],
                           [r.gap_measured for r in recs])
    print(f"cusp-z: {out.detail}")
    return out.ok


def _reproduce_gaps_formule(cfg) -> bool:
    out = ex.smallest_gap([ex.smallest_gap_lines(h).solve(cfg["workers"])
                           for h in ex.SMALLEST_GAP_H])
    ga.write_plot_data(cfg["prefix"] + "gaps_formule.dat",
                       [r.lnh_abs for r in out.measured.rows],
                       [1.0 / r.gap_min_measured for r in out.measured.rows])
    print(f"gaps-formule: {out.detail}")
    return out.ok


def _reproduce_weyl(cfg) -> bool:
    out = ex.weyl([ex.weyl_lines(h).solve(cfg["workers"])
                   for h in ex.WEYL_H])
    rows = out.measured
    ga.write_weyl_csv(cfg["prefix"] + "weyl.csv", rows)
    ga.write_plot_data(cfg["prefix"] + "weyl.dat",
                       [abs(math.log(h)) for h, _, _ in rows],
                       [n / abs(math.log(h)) for h, n, _ in rows])
    print(f"weyl: {out.detail}")
    return out.ok


def _reproduce_unwinding(cfg) -> bool:
    table = ex.UNWINDING_LINES.solve(cfg["workers"])
    out = ex.quantum_loop(table, ex.UNWINDING_RADIUS, cfg["seed"])
    with open(cfg["prefix"] + "unwinding.json", "w") as fh:
        json.dump(_unwind_json(*out.measured), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"unwinding: {out.detail}")
    return out.ok


# each pipeline with the one optional flag it reads, if any
_PIPELINES = {"cusp": (_reproduce_cusp, "h"),
              "cusp-z": (_reproduce_cusp_z, None),
              "gaps-formule": (_reproduce_gaps_formule, None),
              "weyl": (_reproduce_weyl, None),
              "unwinding": (_reproduce_unwinding, "seed")}


def _cmd_reproduce(args) -> int:
    fig = args.figure_id
    if fig not in _PIPELINES:
        raise ConfigurationError(f"unknown figure id {fig!r}")
    pipeline, reads = _PIPELINES[fig]
    for key in ("h", "seed"):
        if getattr(args, key) is not None and key != reads:
            raise ConfigurationError(
                f"reproduce {fig} does not read --{key}")
    cfg = _resolve(args, dict(h=ex.GAP_LAW_H[0], seed=0, workers=None,
                              prefix=""))
    ok = pipeline(cfg)
    print(f"reproduce {fig}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------

def _add(p, *names, **kw):
    """add_argument that also records the flag's type for _resolve."""
    action = p.add_argument(*names, **kw)
    types = p.get_default("flag_types") or {}
    p.set_defaults(flag_types={**types, action.dest: action.type})


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="champagne",
        description="Numerical laboratory for the quantum champagne bottle")
    root.add_argument("--config", help="flat key=value config file")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute a joint spectrum window")
    for name, typ in [("--h", float), ("--n-min", int), ("--n-max", int),
                      ("--e-min", float), ("--e-max", float),
                      ("--grid-points", int), ("--r-max", float),
                      ("--workers", int)]:
        _add(p, name, type=typ)
    _add(p, "--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bs", help="singular Bohr-Sommerfeld model")
    bsub = p.add_subparsers(dest="bs_op", required=True)
    pf = bsub.add_parser("fit")
    for name, typ in [("--x-min", float), ("--x-max", float)]:
        _add(pf, name, type=typ)
    _add(pf, "--spectrum")
    _add(pf, "--out")
    pf.set_defaults(func=_cmd_bs)
    pp = bsub.add_parser("predict")
    for name, typ in [("--n", int), ("--x-min", float), ("--x-max", float)]:
        _add(pp, name, type=typ)
    _add(pp, "--model")
    _add(pp, "--out")
    pp.set_defaults(func=_cmd_bs)

    p = sub.add_parser("gaps", help="measured vs predicted gaps on a line")
    for name, typ in [("--n", int), ("--x-min", float), ("--x-max", float)]:
        _add(p, name, type=typ)
    _add(p, "--spectrum")
    _add(p, "--out")
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("smallest-gap", help="smallest-gap scaling scan")
    _add(p, "--h-list")
    _add(p, "--workers", type=int)
    _add(p, "--out")
    p.set_defaults(func=_cmd_smallest_gap)

    for name, fn, extra in [("weyl", _cmd_weyl, True),
                            ("dh-volume", _cmd_dh_volume, False)]:
        p = sub.add_parser(name)
        for wname in ["--t1-min", "--t1-max", "--t2-min", "--t2-max"]:
            _add(p, wname, type=float)
        if extra:
            _add(p, "--spectrum")
            _add(p, "--out")
        else:
            _add(p, "--h", type=float)
            _add(p, "--samples", type=int)
            _add(p, "--seed", type=int)
        p.set_defaults(func=fn)

    p = sub.add_parser("actions", help="classical action samples")
    _add(p, "--e-list")
    _add(p, "--l-list")
    _add(p, "--out")
    p.set_defaults(func=_cmd_actions)

    p = sub.add_parser("monodromy", help="classical monodromy of a loop")
    for name in ["--center-e", "--center-l", "--radius"]:
        _add(p, name, type=float)
    _add(p, "--segments", type=int)
    p.set_defaults(func=_cmd_monodromy)

    for name, fn in [("unwind", _cmd_unwind), ("count", _cmd_count)]:
        p = sub.add_parser(name)
        _add(p, "--spectrum")
        _add(p, "--loop-radius", type=float)
        _add(p, "--n-top", type=int)
        _add(p, "--seed", type=int)
        _add(p, "--center-x", type=float)
        _add(p, "--center-n", type=float)
        _add(p, "--non-enclosing", action="store_const", const=True)
        _add(p, "--out")
        p.set_defaults(func=fn)

    p = sub.add_parser("special", help="special-function evaluations")
    _add(p, "--op")
    _add(p, "--eps", type=float)
    _add(p, "--n", type=int)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("reproduce", help="end-to-end figure pipelines")
    _add(p, "figure_id",
         help="cusp | cusp-z | gaps-formule | weyl | unwinding")
    _add(p, "--h", type=float)
    _add(p, "--seed", type=int)
    _add(p, "--workers", type=int)
    _add(p, "--prefix")
    p.set_defaults(func=_cmd_reproduce)
    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ChampagneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
