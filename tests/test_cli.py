"""End-to-end checks of the command-line surface.

Everything goes through cli.main(argv) in-process: cheaper than
subprocesses and the exit codes / files are identical.
"""

import dataclasses
import json

import numpy as np
import pytest

from eigentrack import cli, harness, znn
from eigentrack.flows import constant_flow, diag_linear_flow, write_flow_file


def run_cli(*argv):
    return cli.main(list(argv))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_strict_json(path):
    """Parse a written report as strict JSON: no NaN or Infinity tokens."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


# --------------------------------------------------------------------------
# run


def test_run_constant3_csv_schema(tmp_path, capsys):
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--flow", "constant3", "--tau", "0.01",
                 "--tf", "1.0", "--output", out)
    assert rc == 0
    assert "wrote" in capsys.readouterr().out

    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ("t,pair,lambda,x_1,x_2,x_3,"
                       "residual,solve_method,event")
    rows = [ln.split(",") for ln in lines[1:]]
    # 101 instants x 3 pairs
    assert len(rows) == 101 * 3
    assert all(len(r) == 9 for r in rows)
    assert sorted({r[1] for r in rows}) == ["1", "2", "3"]   # 1-based
    assert {r[8] for r in rows} <= {"startup", "predicted",
                                    "restart-triggered"}
    # identity flow: every eigenvalue is 1, so the bordered system is
    # singular and predicted rows must have taken the least-squares path
    predicted = [r for r in rows if r[8] == "predicted"]
    assert predicted and all(r[7] == "least-squares" for r in predicted)
    assert all(abs(float(r[2]) - 1.0) < 1e-9 for r in predicted)
    assert all(r[7] == "static" for r in rows if r[8] != "predicted")


def test_trajectory_csv_labels_follow_kind_and_fallback_mask(tmp_path):
    # a double eigenvalue: pairs 1 and 2 take the least-squares fallback
    # at every predicted instant, pair 3 the direct solve
    traj = znn.run(constant_flow(np.diag([1.0, 1.0, 3.0])),
                   znn.SolverConfig(tau=0.01, eta=1.0, tf=0.1))
    path = tmp_path / "trajectory.csv"
    cli._write_trajectory_csv(str(path), traj)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    labels = np.array([r[7] for r in rows]).reshape(traj.lstsq.shape)
    assert [r[8] for r in rows[::3]] == traj.kind
    predicted = np.asarray(traj.kind) == "predicted"
    assert predicted.any() and not predicted.all()
    assert (labels[~predicted] == "static").all()
    assert (labels[predicted]
            == ["least-squares", "least-squares", "direct"]).all()
    assert np.array_equal(labels == "least-squares", traj.lstsq)


def test_run_prints_the_whole_run_fields(tmp_path, capsys):
    out = str(tmp_path) + "/"
    assert run_cli("run", "--tf", "2.0", "--output", out) == 0
    line = capsys.readouterr().out
    summ = load_strict_json(tmp_path / "report.json")["summary"]
    assert summ["predicted_instants"] == 397     # 401 less s* = 4
    assert (f"whole run: max residual {summ['run_max_residual']:.2e}, "
            f"max orth deviation {summ['run_max_orth_deviation']:.2e}, "
            f"max |x'x-1| {summ['run_max_norm_defect']:.2e}, "
            f"{summ['excluded_instants']} of 397 predicted instants "
            f"outside the steady summary") in line


def test_run_report_config_echo(tmp_path):
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--tau", "0.01", "--tf", "1.0", "--output", out)
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["command"] == "run"
    assert payload["aborted"] is None
    cfg = payload["config"]
    expected = {"eta", "flow", "jump_threshold", "jumps", "metric", "mu",
                "output", "preset", "randomize_seed", "t0", "tau", "tf",
                "recursion", "derivative"}
    assert set(cfg) == expected
    assert cfg["flow"] == "paper"
    assert cfg["jumps"] == [8.0, 14.5]        # defaults echoed explicitly
    assert cfg["randomize_seed"] == 7
    assert cfg["recursion"] == "IFD5"
    assert cfg["derivative"] == "BDF4pt"
    summ = payload["summary"]
    for key in ("median_residual", "max_residual", "max_orth_deviation",
                "restarts", "metric"):
        assert key in summ
    assert summ["restarts"] == 0              # jumps lie beyond tf=1


def test_run_restarts_recorded(tmp_path):
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--flow", "paper-raw", "--tau", "0.005",
                 "--jumps", "1.0", "--tf", "2.0", "--output", out)
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["summary"]["restarts"] == 1
    (t_jump, spike), = payload["restarts"]
    assert t_jump == pytest.approx(1.0)
    assert spike > 300.0
    kinds = {ln.rsplit(",", 1)[1] for ln in
             (tmp_path / "trajectory.csv").read_text().splitlines()[1:]}
    assert "restart-triggered" in kinds


def test_run_empty_jumps_means_smooth(tmp_path):
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--tau", "0.01", "--tf", "1.0",
                 "--jumps", "", "--output", out)
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["jumps"] is None
    assert payload["summary"]["restarts"] == 0


def test_run_flow_file(tmp_path):
    src = diag_linear_flow()
    flow_path = tmp_path / "diag.flow"
    write_flow_file(flow_path, src, t0=0.0, tau=0.01, count=121)
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--flow", str(flow_path), "--tau", "0.01",
                 "--tf", "1.0", "--eta", "4.5", "--output", out)
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["summary"]["median_residual"] < 1e-6
    assert payload["config"]["flow"] == str(flow_path)


def test_run_is_deterministic(tmp_path):
    a = str(tmp_path / "a") + "/"
    b = str(tmp_path / "b") + "/"
    for out in (a, b):
        assert run_cli("run", "--tau", "0.005", "--tf", "10.0",
                       "--output", out) == 0
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert csv_a == csv_b
    # reports agree except for wall-clock timing
    rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
    for rep in (rep_a, rep_b):
        rep["config"].pop("output")
        for key in ("seconds_per_step", "step_utilization", "idle_fraction"):
            rep["summary"].pop(key)
    assert rep_a == rep_b


def test_run_config_file_merging(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"flow": "constant3", "tau": 0.05, "tf": 1.0}))
    out = str(tmp_path) + "/"
    # flag overrides the file value
    rc = run_cli("run", "--config", str(cfg_path), "--tau", "0.02",
                 "--output", out)
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["tau"] == 0.02
    assert payload["config"]["flow"] == "constant3"


def test_run_abort_writes_partial(tmp_path, capsys):
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--flow", "paper-raw", "--tau", "0.005",
                 "--eta", "2000", "--tf", "2.0", "--output", out)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err
    assert "Warning" not in err               # numpy stays silent first
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["aborted"]
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) > 1                     # partial trajectory on disk


def test_run_abort_at_first_instant(tmp_path, capsys, monkeypatch):
    def failing_eigensolver(As):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(znn, "sym_eig_batch", failing_eigensolver)
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--flow", "constant3", "--tf", "0.1",
                 "--output", out)
    assert rc == 3
    assert "numerical abort" in capsys.readouterr().err
    payload = json.loads((tmp_path / "report.json").read_text())
    assert "did not converge" in payload["aborted"]
    assert payload["summary"]["instants"] == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1                    # header only


# --------------------------------------------------------------------------
# configuration errors -> exit 2


@pytest.mark.parametrize("argv", [
    ("run", "--preset", "ifd9"),
    ("run", "--flow", "constant3", "--jumps", "1.0"),
    ("run", "--tf", "0.0"),
    ("run", "--tau", "-0.01"),
    ("run", "--flow", "/no/such/file.flow"),
    ("run", "--jumps", "3.0,1.0"),
    ("converge", "--taus", "0.01"),
    ("converge", "--taus", "0.01,0.005,0.0025", "--jumps", "1.0"),
    ("run", "--tf", "inf"),
    ("run", "--eta", "nan"),
    ("run", "--jump-threshold", "nan"),
    ("run", "--jump-threshold", "-5"),
    ("baseline", "--tau", "nan"),
    ("run", "--jumps", "nan"),
    ("converge", "--taus", "0.01,abc,0.005"),
])
def test_config_errors_exit_2(argv, tmp_path, capsys):
    rc = run_cli(*argv, "--output", str(tmp_path) + "/")
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # the message names the parameter whose flag comes last
    assert argv[-2].lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exit_2_naming_seed(source, tmp_path, capsys):
    if source == "flag":
        argv = ("--seed", "-5")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"randomize_seed": -5}))
        argv = ("--config", str(cfg))
    rc = run_cli("run", *argv, "--output", str(tmp_path) + "/")
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: seed must be a non-negative integer, got -5" in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("argv", [
    ("--tau", "5e-324"),       # (tf - t0) / tau overflows to inf
    ("--tau", "1e-300"),
    ("--tf", "1e12"),
])
def test_grid_over_the_instant_limit_exit_2(argv, tmp_path, capsys):
    rc = run_cli("run", *argv, "--output", str(tmp_path) + "/")
    assert rc == 2
    err = capsys.readouterr().err
    assert "instants; at most 10000000 are allowed" in err
    assert "tau=" in err and "tf" in err
    assert not list(tmp_path.iterdir())      # rejected before any output


def test_infinite_jump_threshold_never_restarts(tmp_path):
    out = str(tmp_path) + "/"
    rc = run_cli("run", "--flow", "paper-raw", "--tau", "0.005",
                 "--jumps", "1.0", "--tf", "2.0", "--jump-threshold", "inf",
                 "--output", out)
    assert rc == 0
    payload = load_strict_json(tmp_path / "report.json")
    assert payload["summary"]["restarts"] == 0
    assert payload["config"]["jump_threshold"] is None


def test_write_json_maps_non_finite_to_null(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json(str(path), {"a": [float("nan"), 1.5, (np.inf, 2)],
                                "b": {"c": -np.inf, "d": np.float64(0.25)}})
    assert load_strict_json(path) == {"a": [None, 1.5, [None, 2]],
                                      "b": {"c": None, "d": 0.25}}


def test_run_non_finite_flow_file_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.flow"
    path.write_text("n=2 tau=0.01 t0=0\n1 0\n0 1\n\n1 nan\nnan 1\n")
    rc = run_cli("run", "--flow", str(path), "--tf", "0.01",
                 "--output", str(tmp_path) + "/")
    assert rc == 2
    err = capsys.readouterr().err
    assert "sample block 1 has a non-finite entry" in err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"flow": "constant3", "bogus": 1}))
    rc = run_cli("run", "--config", str(cfg_path))
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"preset": ["ifd5"]}, {"tau": "0.01"},
                                   {"jumps": [1.0, "2"]}])
def test_config_file_wrong_type_exit_2(entry, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(entry))
    rc = run_cli("run", "--config", str(cfg_path))
    assert rc == 2
    assert next(iter(entry)) in capsys.readouterr().err


def test_malformed_config_file_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = run_cli("run", "--config", str(cfg_path))
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


# --------------------------------------------------------------------------
# formulas


def test_formulas_text(capsys):
    assert run_cli("formulas") == 0
    out = capsys.readouterr().out
    assert "(11,-18,9,-2) over 6*tau" in out
    assert "(25,-48,36,-16,3) over 12*tau" in out
    assert "c=9/4" in out
    assert "c=196/79" in out
    assert "[reconstructed]" in out
    assert "zero-stable" in out
    assert "UNSTABLE" not in out


def test_formulas_json(capsys):
    assert run_cli("formulas", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [b["name"] for b in payload["backward"]] == ["BDF4pt", "BDF5pt"]
    recs = {r["name"]: r for r in payload["recursions"]}
    assert set(recs) == {"IFD5", "IFD6", "IFD7"}
    assert recs["IFD5"]["c"] == "9/4"
    assert recs["IFD5"]["reconstructed"] is False
    assert recs["IFD7"]["c"] == "196/79"
    assert recs["IFD7"]["reconstructed"] is True
    assert recs["IFD7"]["order"] == 5
    for rec in recs.values():
        assert rec["stable"] is True
        assert max(rec["root_moduli"]) == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------------------
# baseline


def test_baseline_outputs(tmp_path, capsys):
    out = str(tmp_path) + "/"
    rc = run_cli("baseline", "--flow", "diag-linear", "--tau", "0.01",
                 "--tf", "1.0", "--output", out)
    assert rc == 0
    assert "median residual" in capsys.readouterr().out
    lines = (tmp_path / "baseline.csv").read_text().splitlines()
    assert lines[0] == "t,pair,residual"
    assert len(lines) == 1 + 100 * 2          # scored instants x pairs
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["command"] == "baseline"
    # hold-the-last-decomposition on diag(2+t, 5): the drifting eigenvalue
    # is off by exactly tau at each scored instant
    t, pair, res = lines[1].split(",")
    assert pair == "1"
    expect = 0.01 / np.hypot(2.0 + 0.01, 5.0)
    assert float(res) == pytest.approx(expect, rel=1e-12)


# --------------------------------------------------------------------------
# converge


def test_converge_outputs(tmp_path, capsys):
    out = str(tmp_path) + "/"
    rc = run_cli("converge", "--flow", "paper-raw", "--tau", "0.01",
                 "--eta", "4.5", "--tf", "2.0", "--output", out,
                 "--taus", "0.01,0.005,0.0025")
    assert rc == 0
    assert "slope" in capsys.readouterr().out
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[0] == "tau,eta,median_residual"
    assert len(lines) == 4
    taus = [float(ln.split(",")[0]) for ln in lines[1:]]
    etas = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert taus == [0.01, 0.005, 0.0025]
    # the sweep holds the loop gain eta*tau fixed
    gains = [t * e for t, e in zip(taus, etas)]
    assert gains == pytest.approx([0.045] * 3)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["command"] == "converge"
    assert payload["config"]["jumps"] is None     # the sweep has no jumps
    assert 2.5 < payload["slope"] < 5.5
    meds = payload["medians"]
    assert meds[0] > meds[1] > meds[2] > 0


def test_converge_abort_exits_3_naming_the_failing_tau(tmp_path, capsys,
                                                       monkeypatch):
    # the sweep's second run (tau = 0.005) meets a non-finite solve
    taus, run, solve = [], harness.run, znn.solve_batch

    def recording_run(flow, cfg):
        taus.append(cfg.tau)
        return run(flow, cfg)

    def poisoned(*args):
        rep = solve(*args)
        if taus[-1] == 0.005:
            return dataclasses.replace(rep, x=np.full_like(rep.x, np.nan))
        return rep
    monkeypatch.setattr(harness, "run", recording_run)
    monkeypatch.setattr(znn, "solve_batch", poisoned)
    out = str(tmp_path) + "/"
    rc = run_cli("converge", "--flow", "paper-raw", "--tau", "0.01",
                 "--eta", "4.5", "--tf", "1.0", "--output", out,
                 "--taus", "0.01,0.005,0.0025")
    assert rc == 3
    assert taus == [0.01, 0.005]
    err = capsys.readouterr().err
    assert "numerical abort" in err and "tau=0.005 " in err
    assert "non-finite prediction" in err
    assert list(tmp_path.iterdir()) == []     # converge writes nothing
