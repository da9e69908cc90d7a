"""Command-line interface: dispatch, config precedence, determinism, and
the file formats every command writes."""

import ast
import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import champagne
from champagne import bohr_sommerfeld as bs
from champagne import classical_actions as ca
from champagne import gap_analysis as ga
from champagne import monodromy_lattice as ml
from champagne import radial_spectrum as rs
from champagne.cli import _COMMANDS, build_parser, main
from champagne.radial_spectrum import default_config


def run(*argv):
    return main(list(argv))


def test_usage_errors():
    assert run("definitely-not-a-command") == 2
    assert run("spectrum", "--no-such-flag") == 2
    # no prefix matching: --h is not --help, --e is not --eps
    assert run("gaps", "--h", "1e-3", "--spectrum", "s.csv") == 2
    assert run("special", "--e", "0.5") == 2
    # count writes no file, so it takes no --out
    assert run("count", "--out", "x") == 2


def test_computation_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    # a model file with a key the model does not have, and a spectrum
    # whose sidecar is not JSON
    model = str(tmp_path / "m.json")
    with open(model, "w") as fh:
        json.dump(dict(B=1.73, C=0.0, offset_mod_2pi=0.0, h=1e-3,
                       residual=None, warning=False, A=0.0), fh)
    spec = str(tmp_path / "s.csv")
    with open(spec, "w") as fh:
        fh.write("h,n,k,E1,E2,x\n0.01,0,0,0.01,0,0.7071067811865476\n")
    with open(spec + ".meta.json", "w") as fh:
        fh.write("not json")
    # a mesh of zero intervals, and a wall at zero, instead of the default
    # mesh; each fails before it writes an output
    out = str(tmp_path / "zero.csv")
    for argv, named in ((("spectrum", "--grid-points", "0", "--out", out),
                         "grid_points must be >= 64"),
                        (("spectrum", "--r-max", "0", "--out", out),
                         "enlarge r_max"),
                        (("gaps", "--spectrum", missing), missing),
                        (("smallest-gap", "--h-list", "1e-2,zz"), "--h-list"),
                        (("actions", "--e-list", "0.1,abc"), "--e-list"),
                        (("smallest-gap", "--h-list", "1e-2"), "two distinct"),
                        (("monodromy", "--segments", "1"), "3 segments"),
                        (("bs", "predict", "--model", model,
                          "--out", str(tmp_path / "p.csv")), "'A'"),
                        (("gaps", "--spectrum", spec,
                          "--out", str(tmp_path / "g.csv")), "not JSON")):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err
    assert not list(tmp_path.glob("zero.csv*"))


def test_json_values_of_the_wrong_type_are_configuration_errors(tmp_path,
                                                                 capsys):
    # a string or a bool where the model or the sidecar has a number: one
    # error line naming the key, not a traceback
    good = dict(B=1.73, C=0.0, offset_mod_2pi=0.0, h=1e-3, residual=None,
                warning=False)
    models = []
    for i, (bad, named) in enumerate([
            (dict(B="1.73"), "B is '1.73', not a number"),
            (dict(h=True), "h is True, not a number"),
            (dict(residual="small"), "not a number or null"),
            (dict(warning=0), "warning is 0, not true or false")]):
        model = str(tmp_path / f"m{i}.json")
        with open(model, "w") as fh:
            json.dump({**good, **bad}, fh)
        models.append((("bs", "predict", "--model", model,
                        "--out", str(tmp_path / "p.csv")), named))
    spec = str(tmp_path / "s.csv")
    assert run("spectrum", "--h", "1e-2", "--n-min", "0", "--n-max", "0",
               "--e-min", "-0.05", "--e-max", "0.05", "--out", spec) == 0
    meta = json.load(open(spec + ".meta.json"))
    grid = meta["config"]["grid_points"]
    meta["config"]["grid_points"] = str(grid)
    with open(spec + ".meta.json", "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    for argv, named in models + [(("gaps", "--spectrum", spec,
                                   "--out", str(tmp_path / "g.csv")),
                                  f"grid_points is '{grid}', not an integer")]:
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err


def test_r_max_alone_keeps_the_default_grid_spacing(tmp_path, capsys):
    base = default_config(1e-2, 0.05)
    spacing = base.r_max / base.grid_points
    for r_max in (1.5, 3.0):
        out = str(tmp_path / f"s{r_max}.csv")
        assert run("spectrum", "--h", "1e-2", "--n-min", "0", "--n-max",
                   "0", "--e-min", "-0.05", "--e-max", "0.05", "--r-max",
                   str(r_max), "--out", out) == 0
        config = json.load(open(out + ".meta.json"))["config"]
        assert config["r_max"] == r_max
        assert config["grid_points"] == math.ceil(r_max / spacing)
        assert r_max / config["grid_points"] <= spacing
    capsys.readouterr()


def test_special_subcommand(capsys):
    assert run("special", "--op", "C", "--eps", "7.3", "--n", "5") == 0
    assert "modulus 1.000000000000" in capsys.readouterr().out


def test_special_rejects_an_eps_that_is_not_finite(capsys):
    for eps in ("nan", "inf", "-inf"):
        for op in ("C", "psi", "psi-prime", "hankel"):
            assert run("special", "--op", op, f"--eps={eps}") == 1
            err = capsys.readouterr().err
            assert err == (f"error: bad --eps value {float(eps)!r}: expected "
                           "a finite number\n")


def test_gaps_on_a_csv_without_its_sidecar_is_one_error_line(tmp_path,
                                                            capsys):
    spec = str(tmp_path / "bare.csv")
    assert run("spectrum", "--h", "1e-2", "--n-min", "0", "--n-max", "0",
               "--e-min", "-0.05", "--e-max", "0.05", "--out", spec) == 0
    Path(spec + ".meta.json").unlink()
    capsys.readouterr()
    assert run("gaps", "--spectrum", spec,
               "--out", str(tmp_path / "g.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}.meta.json not found")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("g.csv*"))


def test_spectrum_bs_gaps_pipeline(tmp_path, capsys):
    spec = str(tmp_path / "s.csv")
    assert run("spectrum", "--h", "1e-2", "--n-min", "-2", "--n-max", "2",
               "--e-min", "-0.08", "--e-max", "0.08", "--out", spec) == 0
    header = open(spec).readline().strip()
    assert header == "h,n,k,E1,E2,x"

    model = str(tmp_path / "m.json")
    assert run("bs", "fit", "--spectrum", spec, "--x-min", "-5",
               "--x-max", "5", "--out", model) == 0
    assert 1.5 < json.load(open(model))["B"] < 2.0

    gaps = str(tmp_path / "g.csv")
    assert run("gaps", "--spectrum", spec, "--n", "0", "--x-min", "-5",
               "--x-max", "5", "--out", gaps) == 0
    assert len(open(gaps).read().strip().split("\n")) > 3

    pred = str(tmp_path / "p.csv")
    assert run("bs", "predict", "--model", model, "--n", "1",
               "--x-min", "-4", "--x-max", "4", "--out", pred) == 0
    capsys.readouterr()


def test_rerun_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["spectrum", "--h", "1e-2", "--n-min", "0", "--n-max", "1",
            "--e-min", "-0.05", "--e-max", "0.05"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=1e-2\nn-min=-1\nn-max=1\n")
    out = str(tmp_path / "s.csv")
    # flag overrides the config file's n-max
    assert run("--config", str(cfg), "spectrum", "--n-max", "0",
               "--e-min", "-0.05", "--e-max", "0.05", "--out", out) == 0
    echoed = capsys.readouterr().out
    assert '"n_max": 0' in echoed and '"n_min": -1' in echoed
    # sidecar embeds the resolved config
    side = json.load(open(out + ".config.json"))
    assert side["config"]["h"] == 0.01 and side["config"]["n_max"] == 0


def test_config_file_keys_no_command_declares_are_rejected(tmp_path,
                                                           capsys):
    cfg = tmp_path / "run.cfg"
    for text, key in (("op=C\nbogus=1\n", "bogus"),
                      ("loop_raduis=18\n", "loop_raduis")):
        cfg.write_text(text)
        assert run("--config", str(cfg), "special", "--eps", "0.5") == 1
        assert key in capsys.readouterr().err
    # a key another command declares passes: one file may serve several
    # commands (samples is dh-volume's, out is not special's)
    cfg.write_text("op=C\nsamples=5000\nout=x.json\n")
    assert run("--config", str(cfg), "special", "--eps", "0.5") == 0
    echoed = capsys.readouterr().out
    assert '"op": "C"' in echoed and "samples" not in echoed
    assert list(tmp_path.iterdir()) == [cfg]


def test_dh_volume_subcommand(capsys):
    assert run("dh-volume", "--h", "1e-3", "--samples", "2000000") == 0
    out = capsys.readouterr().out.strip().split("\n")[-1]
    payload = json.loads(out)
    assert 0.85 <= payload["ratio"] <= 1.15


@pytest.mark.parametrize("command", ["spectrum", "dh-volume"])
def test_an_h_that_is_not_finite_and_positive_is_one_error_line(
        command, tmp_path, monkeypatch, capsys):
    # each fails before it sizes a mesh or draws a sample: exit 1, one
    # error line and no traceback, and no file written
    monkeypatch.chdir(tmp_path)
    for h in ("0", "-1e-3", "nan", "inf"):
        assert run(command, f"--h={h}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: h must be finite and positive")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_dh_volume_with_no_leading_term_is_one_error_line(
        tmp_path, monkeypatch, capsys):
    # a window of zero area, and h = 1 where |ln h| = 0, leave no leading
    # term to divide by: exit 1 and one error line, not a ZeroDivisionError
    monkeypatch.chdir(tmp_path)
    for argv in (("--t2-min", "1", "--t2-max", "1"), ("--h", "1")):
        assert run("dh-volume", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the leading term")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_reproduce_cusp_reports_the_h_it_cannot_take(tmp_path, capsys):
    # h scales the gap window, but the error names h, not an empty window
    prefix = str(tmp_path / "fig_")
    for h, shown in (("0", "0.0"), ("-1e-4", "-0.0001")):
        assert run("reproduce", "cusp", f"--h={h}", "--prefix", prefix) == 1
        assert capsys.readouterr().err == (
            f"error: h must be finite and positive, got {shown}\n")
    assert list(tmp_path.iterdir()) == []


def test_gaps_on_an_empty_window_is_one_error_line(tmp_path, spec_h5em3,
                                                  capsys):
    spec = str(tmp_path / "table.csv")
    rs.write_spectrum_csv(spec_h5em3, spec)
    out = tmp_path / "g.csv"
    with pytest.warns(UserWarning):
        assert run("gaps", "--spectrum", spec, "--x-min", "100",
                   "--x-max", "101", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == ("error: no eigenvalues on line n=0 in the x window "
                   "[100, 101]\n")
    assert not list(tmp_path.glob("g.csv*"))


def test_unwind_non_enclosing_around_the_critical_value_is_refused(
        tmp_path, spec_h5em3, capsys, monkeypatch):
    # the loop is checked when it is built, before any chart is fitted
    spec = str(tmp_path / "table.csv")
    rs.write_spectrum_csv(spec_h5em3, spec)

    def never(*args):
        raise AssertionError("unwind called")

    monkeypatch.setattr(ml, "unwind", never)
    out = tmp_path / "u.json"
    assert run("unwind", "--spectrum", spec, "--loop-radius", "14",
               "--seed", "3", "--non-enclosing", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: enclosing=False, but the loop of radius 14 around the "
        "center (0, 0) winds around the critical value\n")
    assert not list(tmp_path.glob("u.json*"))


def test_monodromy_subcommand(capsys):
    assert run("monodromy", "--radius", "0.2") == 0
    payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payload["matrix"] == [[1, 0], [1, 1]]


def test_actions_subcommand(tmp_path):
    out = str(tmp_path / "a.csv")
    assert run("actions", "--e-list", "0.1,0.2", "--l-list", "0.05",
               "--out", out) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "E,L,r_minus,r_plus,S_r,T,Theta,A_reg"
    assert len(lines) == 3


def test_config_file_values_take_the_flag_type(tmp_path, capsys):
    # flags whose default is None (r_max, grid_points) are cast like the
    # flag, not left as strings
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=1e-2\nn-min=0\nn-max=1\nr-max=3\ngrid-points=4096\n")
    out = str(tmp_path / "s.csv")
    assert run("--config", str(cfg), "spectrum", "--e-min", "-0.05",
               "--e-max", "0.05", "--out", out) == 0
    echoed = capsys.readouterr().out
    assert '"r_max": 3.0' in echoed and '"grid_points": 4096' in echoed
    assert json.load(open(out + ".meta.json"))["config"]["grid_points"] \
        == 4096
    # a value the flag's type rejects is a configuration error
    cfg.write_text("r-max=two\n")
    assert run("--config", str(cfg), "spectrum", "--out", out) == 1
    assert "r_max='two'" in capsys.readouterr().err
    # so is an on/off flag that is neither on nor off, instead of a
    # silent enclosing loop
    cfg.write_text("non-enclosing=ture\n")
    assert run("--config", str(cfg), "unwind", "--spectrum", out,
               "--out", str(tmp_path / "u.json")) == 1
    assert "non_enclosing='ture'" in capsys.readouterr().err


def test_reproduce_cusp(tmp_path, capsys):
    prefix = str(tmp_path / "fig_")
    assert run("reproduce", "cusp", "--h", "1e-2", "--prefix", prefix) == 0
    assert "reproduce cusp: PASS" in capsys.readouterr().out
    for name in ("cusp_measured.dat", "cusp_predicted.dat"):
        rows = open(prefix + name).read().strip().split("\n")
        assert len(rows) > 10 and len(rows[0].split()) == 2


def test_reproduce_rejects_a_flag_its_pipeline_ignores(tmp_path, capsys):
    # only cusp reads --h and only unwinding reads --seed
    prefix = str(tmp_path / "fig_")
    for argv in (("weyl", "--h", "1e-3"), ("unwinding", "--h", "1e-3"),
                 ("cusp", "--seed", "3"), ("gaps-formule", "--seed", "3")):
        assert run("reproduce", *argv, "--prefix", prefix) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert run("reproduce", "nope") == 2
    assert list(tmp_path.iterdir()) == []


def test_readme_command_lines_parse():
    # every example of the README's command-line block parses, and every
    # command other than a reproduce pipeline has one, so a flag renamed
    # or deleted in the command table cannot leave the README wrong
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n#", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("champagne ")]
    names = {func: name for name, (func, _, _) in _COMMANDS.items()}
    shown = set()
    for line in lines:
        try:
            args = build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        shown.add(names[args.func])
    assert shown == {name for name in _COMMANDS
                     if not name.startswith("reproduce ")}


def _fields(record) -> tuple:
    return tuple(f.name for f in dataclasses.fields(record))


def test_every_out_command_writes_its_config_and_field_named_csv(
        tmp_path, spec_h5em3, capsys):
    # every command with --out: main writes <out>.config.json holding the
    # resolved config and the version alone, and a CSV's header is the
    # field names of its record, its rows read back by np.loadtxt equal
    # to the values computed in memory
    spec = str(tmp_path / "table.csv")
    rs.write_spectrum_csv(spec_h5em3, spec)
    model = str(tmp_path / "model.json")
    # command -> (flags, CSV columns or None for JSON, in-memory rows)
    calls = {
        "spectrum": (["--h", "1e-2", "--n-min", "0", "--n-max", "1",
                      "--e-min", "-0.05", "--e-max", "0.05"],
                     rs.POINT_DTYPE.names,
                     lambda: rs.joint_spectrum(
                         1e-2, (0, 1), (-0.05, 0.05)).points.tolist()),
        "bs fit": (["--spectrum", spec, "--out", model], None, None),
        "bs predict": (["--model", model, "--n", "2", "--x-min", "-5",
                        "--x-max", "5"], ("k", "x"),
                       lambda: bs.predict_line(
                           2, bs.QuantizationModel.from_json(model),
                           (-5.0, 5.0))),
        "gaps": (["--spectrum", spec, "--x-min", "-5", "--x-max", "5"],
                 _fields(ga.GapRecord),
                 lambda: ga.measure_gaps(spec_h5em3, 0, (-5.0, 5.0))),
        "smallest-gap": (["--h-list", "1e-2,5e-3"],
                         _fields(ga.SmallestGapRow),
                         lambda: ga.smallest_gap_scan([1e-2, 5e-3]).rows),
        "weyl": (["--spectrum", spec], ("h", "lnh_abs", "N", "predicted",
                                        "residual"),
                 lambda: [(spec_h5em3.h, abs(math.log(spec_h5em3.h)), n,
                           pred, n - pred) for n, pred in [ga.weyl_count(
                               spec_h5em3, ga.Window(-10, 10, -3, 3))]]),
        "actions": (["--e-list", "0.2,0", "--l-list", "0.1,0"],
                    _fields(ca.ActionSample),
                    lambda: [ca.action_sample(0.2, 0.1),
                             ca.action_sample(0.0, 0.0)]),
        "unwind": (["--spectrum", spec], None, None),
    }
    assert list(calls) == [name for name, (_, _, flags) in _COMMANDS.items()
                           if "out" in flags]
    sidecars = []
    for name, (flags, columns, rows) in calls.items():
        out = str(tmp_path / (name.replace(" ", "-") + ".out"))
        if "--out" in flags:
            out = flags[flags.index("--out") + 1]
        else:
            flags = flags + ["--out", out]
        assert run(*name.split(), *flags) == 0, name
        echoed = capsys.readouterr().out.split("\n")[0]
        side = json.load(open(out + ".config.json"))
        assert side == {"config": json.loads(echoed.split(": ", 1)[1]),
                        "version": champagne.__version__}, name
        assert side["config"]["out"] == out
        sidecars.append(out + ".config.json")
        if columns is None:
            json.load(open(out))
            continue
        rows = [dataclasses.astuple(r) if dataclasses.is_dataclass(r)
                else tuple(r) for r in rows()]
        lines = open(out).read().strip().split("\n")
        assert lines[0] == ",".join(columns), name
        assert len(lines) == len(rows) + 1, name
        back = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(back, np.array(rows, dtype=float))
        if name == "gaps":
            assert lines[0] == ("h,n,x_mid,gap_measured,gap_pred_general,"
                                "gap_pred_champagne,rel_err_general,"
                                "rel_err_champagne")
        if name == "actions":
            assert lines[0] == "E,L,r_minus,r_plus,S_r,T,Theta,A_reg"
            vals = [float(v) for v in lines[1].split(",")]
            assert vals[0] == 0.2
            assert vals[5] == pytest.approx(ca.action_sample(0.2, 0.1).T)
            # the critical value: infinite period, undefined Theta
            assert math.isinf(back[1, 5]) and math.isnan(back[1, 6])
    assert sorted(map(str, tmp_path.glob("*.config.json"))) == \
        sorted(sidecars)


def _writes_a_file(call: ast.Call) -> bool:
    """True if the call may write a file: open() or x.open() in a mode
    that is not a constant read mode, or a dump, savetxt-like or
    write_text-like call."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr",
                                                              None)
    if name in ("dump", "savetxt", "savez", "save", "tofile", "write_text",
                "write_bytes"):
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    at = 1 if isinstance(func, ast.Name) else 0  # open(path, m), p.open(m)
    if mode is None and len(call.args) > at:
        mode = call.args[at]
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_the_errors_module_writes_files():
    # one writer per file format: an open() for writing, json.dump or
    # np.savetxt anywhere but errors.py would decide a format a second time
    src = Path(champagne.__file__).parent
    writers = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _writes_a_file(node):
                writers.setdefault(path.name, []).append(node.lineno)
    assert sorted(writers) == ["errors.py"], writers


def test_no_module_starts_threads_or_reads_the_environment():
    # the program runs on one thread, set by its arguments alone: no module
    # imports threading, concurrent.futures or multiprocessing, or reads
    # os.environ or os.getenv
    src = Path(champagne.__file__).parent
    pools, environment = {"threading", "concurrent", "multiprocessing"}, {
        "environ", "getenv"}
    found = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] in pools for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[0]
                bad = module in pools or (module == "os" and any(
                    a.name in environment for a in node.names))
            else:
                bad = (isinstance(node, ast.Attribute)
                       and node.attr in environment
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "os")
            if bad:
                found.setdefault(path.name, []).append(node.lineno)
    assert not found, found
