"""Command-line interface: dispatch, config precedence, determinism."""

import json

import pytest

from champagne.cli import main


def run(*argv):
    return main(list(argv))


def test_usage_errors():
    assert run("definitely-not-a-command") == 2
    assert run("spectrum", "--no-such-flag") == 2


def test_computation_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert run("gaps", "--spectrum", missing) == 1
    assert "error:" in capsys.readouterr().err


def test_special_subcommand(capsys):
    assert run("special", "--op", "C", "--eps", "7.3", "--n", "5") == 0
    assert "modulus 1.000000000000" in capsys.readouterr().out


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


def test_dh_volume_subcommand(capsys):
    assert run("dh-volume", "--h", "1e-3", "--samples", "2000000") == 0
    out = capsys.readouterr().out.strip().split("\n")[-1]
    payload = json.loads(out)
    assert 0.85 <= payload["ratio"] <= 1.15


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
    # flags whose default is None (workers, grid_points) are cast like the
    # flag, not left as strings
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=1e-2\nn-min=0\nn-max=1\nworkers=1\ngrid-points=4096\n")
    out = str(tmp_path / "s.csv")
    assert run("--config", str(cfg), "spectrum", "--e-min", "-0.05",
               "--e-max", "0.05", "--out", out) == 0
    echoed = capsys.readouterr().out
    assert '"workers": 1' in echoed and '"grid_points": 4096' in echoed
    assert json.load(open(out + ".meta.json"))["config"]["grid_points"] \
        == 4096
    # a value the flag's type rejects is a configuration error
    cfg.write_text("workers=two\n")
    assert run("--config", str(cfg), "spectrum", "--out", out) == 1
    assert "workers='two'" in capsys.readouterr().err


def test_reproduce_cusp(tmp_path, capsys):
    prefix = str(tmp_path / "fig_")
    assert run("reproduce", "cusp", "--h", "1e-2", "--prefix", prefix) == 0
    assert "reproduce cusp: PASS" in capsys.readouterr().out
    for name in ("cusp_measured.dat", "cusp_predicted.dat"):
        rows = open(prefix + name).read().strip().split("\n")
        assert len(rows) > 10 and len(rows[0].split()) == 2


def test_reproduce_rejects_a_flag_its_pipeline_ignores(capsys):
    # only cusp reads --h and only unwinding reads --seed
    for argv in (("weyl", "--h", "1e-3"), ("unwinding", "--h", "1e-3"),
                 ("cusp", "--seed", "3"), ("gaps-formule", "--seed", "3")):
        assert run("reproduce", *argv) == 1
        err = capsys.readouterr().err
        assert f"reproduce {argv[0]} does not read {argv[1]}" in err
