"""Command-line interface: outputs, presets, exit codes, config round-trip."""

import csv
import json
import math

import numpy as np
import pytest

from swirlgas import cli
from swirlgas.cli import main
from swirlgas.fields import SolutionParams, ScaleState, eval_flow_arrays


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_csv_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code, _, _ = run_cli(["eval", "--preset", "generic-smooth", "--time", "0",
                          "--grid-n", "5", "--grid-extent", "1.0",
                          "--out", str(out), "--format", "csv"], capsys)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "rho", "u1", "u2", "p"]
    data = {(r[0], r[1]): [float(v) for v in r[2:]] for r in rows[1:]}
    # The origin row carries rho = alpha^(1/(gamma-1))/a0^2 = 1.
    origin = data[("0.0", "0.0")]
    assert origin[0] == 1.0 and origin[1] == 0.0 and origin[2] == 0.0
    # Full-precision round trip: re-reading reproduces in-memory values
    # bitwise (recomputed through the same vectorized path).
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    st = ScaleState(t=0.0, a=1.0, adot=0.3)
    body = rows[1:]
    xs = np.array([float(r[0]) for r in body])
    ys = np.array([float(r[1]) for r in body])
    rho, u1, u2, pres = eval_flow_arrays(p, st, xs, ys)
    parsed = np.array([[float(v) for v in r[2:]] for r in body])
    assert np.array_equal(parsed, np.column_stack([rho, u1, u2, pres]))


def test_eval_fixture_values(capsys):
    code, out, _ = run_cli(["eval", "--preset", "zhang-zheng", "--time", "0",
                            "--grid-n", "5", "--grid-extent", "2.0",
                            "--format", "csv"], capsys)
    assert code == 0
    rows = {(r[0], r[1]): [float(v) for v in r[2:]]
            for r in csv.reader(out.splitlines()[1:])}
    rho, u1, u2, _ = rows[("2.0", "0.0")]
    assert (rho, u1, u2) == (0.5, 1.0, -1.0)


def test_classify_presets(capsys):
    expected = {
        "periodic-demo": ("1", "time-periodic"),
        "blowup-demo": ("2b-blowup", "finite-time-blowup"),
        "gamma3-critical": ("3bI-global", "global"),
        "linear-blowup-demo": ("2aII", "finite-time-blowup"),
    }
    for preset, (branch, kind) in expected.items():
        code, out, _ = run_cli(["classify", "--preset", preset], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["branch"] == branch
        assert rep["kind"] == kind


def test_classify_with_certification(capsys):
    code, out, _ = run_cli(["classify", "--preset", "blowup-demo", "--certify",
                            "--horizon", "5"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["certification"]["passed"] is True
    assert abs(rep["certification"]["checks"]["event_time"] - 1.0) <= 1e-6


def test_classify_certify_reports_diagnostics(capsys):
    code, out, _ = run_cli(["classify", "--preset", "periodic-demo", "--certify"], capsys)
    assert code == 0
    diag = json.loads(out)["certification"]["diagnostics"]
    assert set(diag) == {"nfev", "naccepted", "nrejected", "min_step", "terminal", "message"}
    assert diag["terminal"] == "reached_end" and diag["naccepted"] > 0
    assert diag["nfev"] == 2 + 6 * (diag["naccepted"] + diag["nrejected"])
    assert 0.0 < diag["min_step"] < math.inf


def test_period_report(capsys):
    code, out, _ = run_cli(["period", "--preset", "periodic-demo"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["period"] == pytest.approx(2.4183991523, rel=1e-9)
    assert rep["quad_error"] <= 1e-9


def test_period_degenerate_orbit_exit_code(capsys):
    code, _, err = run_cli(["period", "--gamma", "1.5", "--K", "1", "--xi", "1",
                            "--lam", "-2", "--alpha", "1", "--a0", "0.5",
                            "--a1", "0"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "DegenerateOrbit"


def test_integrate_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(["integrate", "--preset", "gamma2-oracle",
                          "--t-end", "2.0", "--out", str(out),
                          "--format", "csv"], capsys)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a", "adot", "E", "F_kin", "F_pot"]
    last = [float(v) for v in rows[-1]]
    assert last[0] == pytest.approx(2.0, abs=1e-12)
    assert last[1] == pytest.approx(np.sqrt(5.0), abs=1e-8)


def test_integrate_json_terminal(capsys):
    code, out, _ = run_cli(["integrate", "--preset", "blowup-demo",
                            "--t-end", "2.0", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["terminal"]["kind"] == "collapsed"
    assert abs(rep["terminal"]["t"] - 1.0) <= 1e-6


def test_verify_generic_passes(capsys):
    code, out, _ = run_cli(["verify", "--preset", "generic-smooth"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "PASS"
    assert rep["max_normalized"] <= 1e-6


def test_verify_fixture_extras(capsys):
    code, out, _ = run_cli(["verify", "--preset", "zhang-zheng",
                            "--mass-sweep", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["fixture_direct"]["max_normalized"] <= 1e-7
    assert rep["embedding_match"]["density_max_diff"] <= 1e-12
    assert rep["embedding_match"]["speed_max_diff"] <= 1e-12
    assert rep["mass_sweep"]["max"] <= 1e-6
    assert rep["verdict"] == "PASS"


def test_verify_viscous_block(capsys):
    # Coarse spatial h keeps the second-difference rounding noise of the
    # viscous term far below the bound; h_t stays fine for the residual.
    code, out, _ = run_cli(["verify", "--preset", "generic-smooth",
                            "--mu", "3.7", "--h", "0.01", "--h-t", "0.0005"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["viscous"]["viscous_term_normalized"] <= 1e-10
    assert rep["viscous"]["max_difference"] <= 1e-10


def test_verify3d_isotropic(capsys):
    code, out, _ = run_cli(["verify3d", "--mode", "isotropic"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "PASS"
    case = rep["cases"]["isotropic"]
    assert case["residual"]["verdict"] == "PASS"
    assert 1.8 <= case["convergence"]["order"] <= 4.2


def test_verify3d_config_file_applies_unless_a_flag_is_given(tmp_path, capsys):
    cfg_path = tmp_path / "verify3d.json"
    cfg_path.write_text(json.dumps({"verify3d": {"h": 0.004, "mode": "isotropic"}}))
    code, out, _ = run_cli(["verify3d", "--config", str(cfg_path)], capsys)
    rep = json.loads(out)
    assert list(rep["cases"]) == ["isotropic"]
    assert rep["cases"]["isotropic"]["convergence"]["h"] == [0.016, 0.008, 0.004]
    assert rep["config"] == {"verify3d": {"mode": "isotropic", "tolerance": 1e-6, "h": 0.004}}
    # At h = 4e-3 the isotropic residual (4.3e-6) is above the default 1e-6.
    assert code == 1 and rep["verdict"] == "FAIL"
    cfg_path.write_text(json.dumps({"verify3d": {"h": 0.004, "mode": "isotropic",
                                                 "tolerance": 1e-5}}))
    code, out, _ = run_cli(["verify3d", "--config", str(cfg_path)], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    # A flag beats the file; the emitted config reproduces the run.
    emitted = tmp_path / "emitted.json"
    code, out1, _ = run_cli(["verify3d", "--config", str(cfg_path), "--mode", "drift",
                             "--emit-config", str(emitted)], capsys)
    rep = json.loads(out1)
    assert list(rep["cases"]) == ["drift"]
    assert rep["cases"]["drift"]["convergence"]["h"] == [0.016, 0.008, 0.004]
    code, out2, _ = run_cli(["verify3d", "--config", str(emitted)], capsys)
    assert json.loads(out2) == rep
    cfg_path.write_text(json.dumps({"verify3d": {"mode": "no-such-mode"}}))
    code, _, err = run_cli(["verify3d", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "InvalidParams"


def test_fvbench_dump_cells_reuses_the_table_run(tmp_path, capsys, monkeypatch):
    # The dump is the finest field of the table's own runs: the default
    # 64/128/256 table takes 209 steps with or without it.
    from swirlgas import fv
    steps = []
    step = fv.step

    def counted(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(fv, "step", counted)
    code, _, _ = run_cli(["fvbench", "--preset", "generic-smooth",
                          "--dump-cells", str(tmp_path / "cells.csv")], capsys)
    assert code == 0
    assert len(steps) == 209


def test_fvbench_dump_cells_format(tmp_path, capsys):
    # Byte for byte what csv.writer makes of the shortest round-trip reprs.
    from swirlgas import fv
    from swirlgas.emden import IntegrationConfig, integrate
    cells = tmp_path / "cells.csv"
    code, _, _ = run_cli(["fvbench", "--preset", "generic-smooth", "--resolutions", "16,32",
                          "--horizon", "0.05", "--dump-cells", str(cells)], capsys)
    assert code == 0
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    traj = integrate(p, IntegrationConfig(t_end=0.15))
    field = fv.run(p, traj, fv.FvConfig(x_lo=-1.2, x_hi=1.2, y_lo=-1.2, y_hi=1.2, nx=32, ny=32,
                                        cfl=0.4, t0=0.0, t_end=0.05))
    xg, yg = field.cfg.centers()
    sl = (slice(1, -1), slice(1, -1))
    cols = [xg[sl], yg[sl], field.rho[sl], field.m1[sl], field.m2[sl]]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("x", "y", "rho", "m1", "m2"))
        for row in zip(*(c.ravel() for c in cols)):
            w.writerow([repr(float(v)) for v in row])
    assert cells.read_bytes() == expected.read_bytes()


def test_fvbench_small(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(["fvbench", "--preset", "generic-smooth",
                          "--resolutions", "16,32", "--horizon", "0.05",
                          "--out", str(out), "--format", "csv"], capsys)
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "resolution"
    assert len(rows) == 3
    assert float(rows[2][1]) < float(rows[1][1])  # L1 error decreases


@pytest.mark.parametrize("args", [
    pytest.param(["classify", "--preset", "gamma3-critical"], id="classify-preset"),
    pytest.param(["eval", "--preset", "periodic-demo", "--time", "0.5", "--grid-n", "3"],
                 id="eval"),
    pytest.param(["integrate", "--preset", "periodic-demo", "--t-end", "2"], id="integrate"),
    pytest.param(["classify", "--preset", "blowup-demo", "--locate-blowup", "--certify",
                  "--horizon", "5"], id="classify"),
    pytest.param(["period", "--preset", "periodic-demo"], id="period"),
    pytest.param(["verify", "--preset", "generic-smooth", "--h", "0.002", "--r-hi", "1.5"],
                 id="verify-grid"),
    pytest.param(["verify", "--preset", "generic-smooth", "--tolerance", "1e-9",
                  "--mu", "0.5", "--mass-sweep", "1"], id="verify"),
    pytest.param(["verify", "--preset", "zhang-zheng"], id="verify-zhang-zheng"),
    pytest.param(["fvbench", "--preset", "generic-smooth", "--resolutions", "16,32",
                  "--horizon", "0.05"], id="fvbench"),
    pytest.param(["verify3d", "--mode", "drift"], id="verify3d"),
])
def test_config_roundtrip(args, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    code1, out1, _ = run_cli(args + ["--format", "json", "--emit-config", str(cfg_path)], capsys)
    code2, out2, _ = run_cli([args[0], "--config", str(cfg_path), "--format", "json"], capsys)
    assert code2 == code1
    assert out2 == out1
    assert json.loads(out1)["config"] == json.loads(cfg_path.read_text())


def test_flag_overrides_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    run_cli(["classify", "--preset", "blowup-demo", "--emit-config", str(cfg_path)], capsys)
    code, out, _ = run_cli(["classify", "--config", str(cfg_path),
                            "--a1", "1.0"], capsys)
    assert code == 0
    assert json.loads(out)["branch"] == "2b-global"  # rate at the threshold


def test_missing_params_is_domain_error(capsys):
    code, _, err = run_cli(["classify"], capsys)
    assert code == 1
    assert "error" in json.loads(err)


def test_invalid_params_error_payload(capsys):
    code, _, err = run_cli(["classify", "--preset", "blowup-demo",
                            "--gamma", "0.5"], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidParams"
    assert "NonPositiveGammaMargin" in payload["violations"]


@pytest.mark.parametrize("args", [
    ["integrate", "--preset", "periodic-demo", "--t-end", "-1"],
    ["integrate", "--preset", "periodic-demo", "--rel-tol", "-1"],
    ["verify", "--preset", "generic-smooth", "--h", "-1"],
    ["fvbench", "--preset", "generic-smooth", "--cfl", "2"],
    ["fvbench", "--preset", "generic-smooth", "--resolutions", "32"],
    ["verify", "--preset", "generic-smooth", "--n-r", "0"],
    ["verify3d", "--h", "-1"],
    # The inner turning point is below float range, so the periodic verdict
    # carries no period for certify to check.
    ["classify", "--gamma", "1.999", "--K", "1", "--xi", "1", "--lam", "-2",
     "--alpha", "1", "--a0", "1", "--a1", "0", "--certify"],
    ["eval", "--preset", "generic-smooth", "--grid-n", "-1"],
    ["verify", "--preset", "generic-smooth", "--mass-sweep", "-1"],
    ["eval", "--preset", "periodic-demo", "--time", "-1"],
    ["integrate", "--preset", "periodic-demo", "--max-step", "0"],
    ["fvbench", "--preset", "generic-smooth", "--box", "-1"],
    ["fvbench", "--preset", "generic-smooth", "--resolutions", "16,16"],
    ["classify", "--preset", "periodic-demo", "--certify", "--horizon", "-1"],
    ["verify", "--preset", "generic-smooth", "--tolerance", "nan"],
    ["fvbench", "--preset", "generic-smooth", "--horizon", "inf"],
])
def test_bad_values_are_domain_errors(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("args, violation", [
    (["verify", "--preset", "generic-smooth", "--tolerance", "0"], "NonPositive:tolerance"),
    (["verify", "--preset", "generic-smooth", "--tolerance", "-1"], "NonPositive:tolerance"),
    (["verify3d", "--tolerance", "-1"], "NonPositive:verify3d.tolerance"),
])
def test_non_positive_tolerance_is_rejected_before_any_work(args, violation, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("integrated before the tolerance was checked")
    monkeypatch.setattr(cli, "integrate", no_work)
    monkeypatch.setattr(cli.residuals, "integrate_scales_3d", no_work)
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert json.loads(err) == {"error": "InvalidParams", "message": violation,
                               "violations": [violation]}


@pytest.mark.parametrize("horizon", ["0", "-0.05", "-0.1", "-0.5"])
def test_non_positive_fv_horizon_is_rejected(horizon, capsys, monkeypatch):
    # The scale equation is integrated to the derived horizon + 0.1, so a
    # horizon <= -0.1 used to fail there first, with a message about t_end.
    def no_work(*args, **kwargs):
        raise AssertionError("integrated before the horizon was checked")
    monkeypatch.setattr(cli, "integrate", no_work)
    code, _, err = run_cli(["fvbench", "--preset", "generic-smooth", "--horizon", horizon], capsys)
    assert code == 1
    assert json.loads(err) == {"error": "NonPositiveTime",
                               "message": f"the horizon t_end - t0 = {float(horizon)!r} must be positive"}


@pytest.mark.parametrize("preset", ["generic-smooth", "gamma3-critical"])
def test_fv_run_past_the_trajectory_is_a_domain_error(preset, capsys):
    code, _, err = run_cli(["fvbench", "--preset", preset, "--t-end", "0.2",
                            "--horizon", "0.5"], capsys)
    assert code == 1
    assert json.loads(err) == {"error": "TrajectoryTooShort",
                               "message": "need [0.0, 0.5] inside (0.0, 0.2)"}


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def test_reports_and_configs_are_strict_json(tmp_path, capsys):
    # An explicit unbounded max_step is the default: it stays out of the config.
    cfg_path = tmp_path / "cfg.json"
    args = ["integrate", "--preset", "periodic-demo", "--format", "json"]
    code, out, _ = run_cli(args + ["--max-step", "inf", "--emit-config", str(cfg_path)], capsys)
    assert code == 0
    cfg = _strict_json(cfg_path.read_text())
    assert "max_step" not in cfg["integration"]
    assert _strict_json(out)["config"] == cfg
    assert run_cli(["integrate", "--config", str(cfg_path), "--format", "json"], capsys)[1] == out
    # A static state is stepped exactly, so both errors are 0 and the order
    # is not finite: null.
    code, out, _ = run_cli(["fvbench", "--gamma", "1.4", "--K", "1", "--xi", "0", "--lam", "0",
                            "--alpha", "1", "--a0", "1", "--a1", "0", "--horizon", "0.05",
                            "--resolutions", "16,32", "--format", "json"], capsys)
    assert code == 0
    report = _strict_json(out)
    assert report["l1_rho"] == [0.0, 0.0]
    assert report["orders_l1_rho"] == [None]


@pytest.mark.parametrize("args, text, code, error", [
    (["verify", "--preset", "generic-smooth"], '{"grid": {"h": "0.004"}}', 1, "grid.h"),
    (["verify3d"], '{"verify3d": {"h": "0.004"}}', 1, "verify3d.h"),
    (["integrate", "--preset", "periodic-demo"], '{"integration": {"rel_tol": "x"}}', 1,
     "integration.rel_tol"),
    (["classify"], '{"params": {"gamma": "abc"}}', 1, "params.gamma"),
    (["fvbench", "--preset", "generic-smooth"], '{"fvbench": {"cfl": "0.4"}}', 1, "fvbench.cfl"),
    (["fvbench", "--preset", "generic-smooth"], '{"fvbench": {"resolutions": 64}}', 1,
     "fvbench.resolutions"),
    (["classify", "--preset", "blowup-demo"], '[1, 2]', 2, "io"),
    (["classify", "--preset", "blowup-demo"], '{"params": ', 2, "io"),
], ids=["grid-h", "verify3d-h", "integration-rel-tol", "params-gamma", "fvbench-cfl",
        "fvbench-resolutions", "top-level-list", "malformed"])
def test_bad_config_files(args, text, code, error, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    got, _, err = run_cli(args + ["--config", str(cfg_path)], capsys)
    assert got == code
    payload = json.loads(err)
    if code == 1:
        assert payload["error"] == "InvalidParams"
        assert payload["violations"] == [f"WrongType:{error}"]
    else:
        assert payload["error"] == error


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--preset", "no-such-preset"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fvbench", "--preset", "generic-smooth", "--resolutions", "a,b"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_io_error_exit_two(tmp_path, capsys):
    code, _, err = run_cli(["classify", "--preset", "blowup-demo",
                            "--out", str(tmp_path / "no" / "dir" / "x.json")], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "io"
