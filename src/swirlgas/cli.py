"""Command-line front end.

Commands mirror the library surface one-to-one:

  eval       sample the exact flow field on a grid           -> CSV
  integrate  scale-factor trajectory with energy record      -> CSV (+ JSON)
  classify   long-time regime with certificate               -> JSON
  period     oscillation period via turning-point quadrature -> JSON
  verify     2D residual checks (family, fixture, swirl, NS) -> JSON
  verify3d   three-axis family residual harness              -> JSON
  fvbench    finite-volume convergence table                 -> CSV (+ JSON)

Exit codes: 0 on success/PASS, 1 on structured domain errors, 2 on usage or
I/O errors.  All numbers are emitted with full round-trip precision.  Every
JSON report embeds the fully-resolved configuration under "config";
--emit-config writes it standalone so a run can be reproduced exactly with
--config FILE (explicit flags still override file values).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import fv, regimes, residuals
from .emden import IntegrationConfig, energy_drift, integrate
from .errors import InvalidParams, SwirlgasError
from .fields import (
    ScaleState,
    SolutionParams,
    eval_flow_arrays,
    validate_params,
    zhang_zheng_arrays,
    zhang_zheng_embedding,
)

PRESETS = {
    "zhang-zheng": dict(gamma=2.0, K=1.0, xi=-0.5, lam=-0.5, alpha=0.0, a0=1.0, a1=0.5),
    "periodic-demo": dict(gamma=1.5, K=1.0, xi=1.0, lam=-2.0, alpha=1.0, a0=1.0, a1=0.0),
    "blowup-demo": dict(gamma=2.0, K=1.0, xi=1.0, lam=-2.0, alpha=1.0, a0=1.0, a1=0.0),
    "gamma3-critical": dict(gamma=3.0, K=1.0, xi=1.0, lam=-1.0, alpha=1.0, a0=2.0, a1=0.0),
    "linear-blowup-demo": dict(gamma=2.0, K=1.0, xi=1.0, lam=-1.0, alpha=1.0, a0=1.0, a1=-0.5),
    "generic-smooth": dict(gamma=1.4, K=1.0, xi=0.7, lam=0.9, alpha=1.0, a0=1.0, a1=0.3),
    "gamma2-oracle": dict(gamma=2.0, K=1.0, xi=1.0, lam=0.0, alpha=1.0, a0=1.0, a1=0.0),
}

PARAM_FIELDS = ("gamma", "K", "xi", "lam", "alpha", "a0", "a1")
INTEGRATION_FIELDS = ("rel_tol", "abs_tol", "max_step", "collapse_epsilon", "t_end")


def _fmt(v):
    """Full-precision scalar formatting (shortest round-trip repr)."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter set")
    for name in PARAM_FIELDS:
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--emit-config", metavar="PATH",
                   help="write the fully-resolved config as JSON and continue")


def _add_integration_flags(p: argparse.ArgumentParser):
    for name in INTEGRATION_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float, default=None)


def _add_out_flags(p: argparse.ArgumentParser, default_format="json"):
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"), default=default_format)


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _resolve_params(args, cfg_file) -> SolutionParams:
    record = {}
    if args.preset:
        record.update(PRESETS[args.preset])
    record.update(cfg_file.get("params", {}))
    for name in PARAM_FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            record[name] = v
    if not record:
        raise SwirlgasError("no parameters given; use --preset, --config or explicit flags")
    return validate_params(record)


def _resolve_integration(args, cfg_file, default_t_end=10.0) -> IntegrationConfig:
    record = dict(cfg_file.get("integration", {}))
    for name in INTEGRATION_FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            record[name] = v
    record.setdefault("t_end", default_t_end)
    return IntegrationConfig(**{k: float(record[k]) for k in INTEGRATION_FIELDS if k in record})


def _effective_config(params=None, integration=None, extra=None):
    cfg = {}
    if params is not None:
        cfg["params"] = {k: getattr(params, k) for k in PARAM_FIELDS}
    if integration is not None:
        cfg["integration"] = {k: getattr(integration, k) for k in INTEGRATION_FIELDS
                              if math.isfinite(getattr(integration, k))}
    if extra:
        cfg.update(extra)
    return cfg


def _emit(args, payload_json=None, csv_rows=None, csv_header=None):
    """Write the report in the requested format to --out or stdout."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and csv_rows is not None:
        target = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            w = csv.writer(target)
            if csv_header:
                w.writerow(csv_header)
            for row in csv_rows:
                w.writerow([_fmt(v) for v in row])
        finally:
            if args.out:
                target.close()
    else:
        text = json.dumps(payload_json, indent=2, default=_json_default)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _maybe_emit_config(args, config):
    if getattr(args, "emit_config", None):
        with open(args.emit_config, "w") as fh:
            json.dump(config, fh, indent=2, default=_json_default)
            fh.write("\n")


# ---------------------------------------------------------------- commands


def cmd_eval(args):
    cfg_file = _load_config(args.config) if args.config else {}
    params = _resolve_params(args, cfg_file)
    icfg = _resolve_integration(args, cfg_file, default_t_end=max(args.time, 1e-6))
    config = _effective_config(params, icfg, {
        "time": args.time, "grid_n": args.grid_n, "grid_extent": args.grid_extent})
    _maybe_emit_config(args, config)

    if args.time > 0:
        traj = integrate(params, icfg)
        if traj.terminal.kind != "reached_end" and traj.t_span[1] < args.time:
            raise SwirlgasError(
                f"trajectory ended at t = {traj.t_span[1]} ({traj.terminal.kind}) "
                f"before the requested time {args.time}")
        state = traj.state_at(args.time)
    else:
        state = ScaleState(t=0.0, a=params.a0, adot=params.a1)

    ext = args.grid_extent
    xs = np.linspace(-ext, ext, args.grid_n)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    rho, u1, u2, p = eval_flow_arrays(params, state, xg.ravel(), yg.ravel())
    rows = np.column_stack([xg.ravel(), yg.ravel(), rho, u1, u2, p])
    _emit(args, payload_json={"config": config, "state": {
        "t": state.t, "a": state.a, "adot": state.adot},
        "samples": rows.tolist()},
        csv_rows=rows, csv_header=("x", "y", "rho", "u1", "u2", "p"))
    return 0


def cmd_integrate(args):
    cfg_file = _load_config(args.config) if args.config else {}
    params = _resolve_params(args, cfg_file)
    icfg = _resolve_integration(args, cfg_file)
    config = _effective_config(params, icfg)
    _maybe_emit_config(args, config)
    traj = integrate(params, icfg)
    summary = {
        "config": config,
        "terminal": {"kind": traj.terminal.kind, "t": traj.terminal.t,
                     "bracket": traj.terminal.bracket, "message": traj.terminal.message},
        "nodes": int(traj.ts.size),
        "energy_drift": energy_drift(traj),
        "E0": float(traj.E[0]),
    }
    _emit(args, payload_json=summary, csv_rows=traj.csv_rows(),
          csv_header=("t", "a", "adot", "E", "F_kin", "F_pot"))
    return 0


def cmd_classify(args):
    cfg_file = _load_config(args.config) if args.config else {}
    params = _resolve_params(args, cfg_file)
    config = _effective_config(params, extra={"locate_blowup": args.locate_blowup})
    _maybe_emit_config(args, config)
    regime = regimes.classify(params, locate_blowup=args.locate_blowup)
    report = {
        "config": config,
        "kind": regime.kind,
        "branch": regime.branch,
        "period": regime.period,
        "blowup_time": regime.blowup_time,
        "blowup_bracket": regime.blowup_bracket,
        "certificate": regime.certificate,
        "notes": list(regime.notes),
    }
    if args.certify:
        rep = regimes.certify(params, regime, horizon=args.horizon)
        report["certification"] = {"passed": rep.passed, "checks": rep.checks,
                                   "horizon": rep.horizon}
    _emit(args, payload_json=report)
    return 0


def cmd_period(args):
    cfg_file = _load_config(args.config) if args.config else {}
    params = _resolve_params(args, cfg_file)
    config = _effective_config(params)
    _maybe_emit_config(args, config)
    pr = regimes.period_quadrature(params)
    _emit(args, payload_json={
        "config": config, "period": pr.period, "quad_error": pr.quad_error,
        "a_min": pr.a_min, "a_max": pr.a_max, "nodes": pr.nodes})
    return 0


def _pick(flag_value, cfg_section, key, default):
    """Flag (when given) beats the config file, which beats the default."""
    if flag_value is not None:
        return flag_value
    if key in cfg_section:
        return cfg_section[key]
    return default


def cmd_verify(args):
    cfg_file = _load_config(args.config) if args.config else {}
    gcfg = cfg_file.get("grid", {})
    params = _resolve_params(args, cfg_file)
    time_at = _pick(args.time, cfg_file, "time", 0.5)
    icfg = _resolve_integration(args, cfg_file, default_t_end=2.0 * time_at)
    h = _pick(args.h, gcfg, "h", 1e-3)
    grid = residuals.GridSpec(
        kind="annulus",
        r_lo=_pick(args.r_lo, gcfg, "r_lo", 0.3),
        r_hi=_pick(args.r_hi, gcfg, "r_hi", 2.0),
        n_r=int(_pick(args.n_r, gcfg, "n_r", 16)),
        n_theta=int(_pick(args.n_theta, gcfg, "n_theta", 24)),
        h=h, h_t=_pick(args.h_t, gcfg, "h_t", 0.5 * h))
    args.time = time_at
    config = _effective_config(params, icfg, {
        "time": time_at, "grid": {
            "r_lo": grid.r_lo, "r_hi": grid.r_hi, "n_r": grid.n_r,
            "n_theta": grid.n_theta, "h": grid.h, "h_t": grid.h_t},
        "tolerance": args.tolerance, "mu": args.mu, "mass_sweep": args.mass_sweep})
    _maybe_emit_config(args, config)
    traj = integrate(params, icfg)
    report = {"config": config}

    rep = residuals.euler_residual_2d(params, traj, args.time, grid)
    report["family"] = rep.as_dict()
    worst = rep.max_normalized

    if args.mu:
        rep_ns = residuals.euler_residual_2d(params, traj, args.time, grid, mu=args.mu)
        x, y = grid.points()
        vn = residuals.viscous_norm(params, traj.state_at(args.time), x, y,
                                    mu=args.mu, h=grid.h)
        report["viscous"] = {"mu": args.mu, "residual_with_viscous": rep_ns.as_dict(),
                             "viscous_term_normalized": vn,
                             "max_difference": abs(rep_ns.max_normalized - worst)}

    if args.preset == "zhang-zheng":
        t_fix = 1.0 + args.time  # family clock starts at the fixture time 1
        gz = residuals.GridSpec(kind="annulus", r_lo=max(grid.r_lo, 3 * grid.h),
                                r_hi=grid.r_hi, n_r=grid.n_r, n_theta=grid.n_theta,
                                h=grid.h / 2.0)
        zz = residuals.zz_direct_residual(t_fix, params.K, gz)
        report["fixture_direct"] = zz.as_dict()
        worst = max(worst, zz.max_normalized)
        emb = zhang_zheng_embedding(params.K)
        rng = np.random.default_rng(0)
        xr = rng.uniform(-2, 2, 100)
        yr = rng.uniform(-2, 2, 100)
        rho_f, u1_f, u2_f, _ = eval_flow_arrays(emb.params, emb.scale_state(t_fix), xr, yr)
        rho_z, u1_z, u2_z, _ = zhang_zheng_arrays(t_fix, xr, yr, params.K)
        report["embedding_match"] = {
            "density_max_diff": float(np.max(np.abs(rho_f - rho_z))),
            "speed_max_diff": float(np.max(np.abs(np.hypot(u1_f, u2_f) - np.hypot(u1_z, u2_z)))),
            "chirality": emb.chirality,
            "field_match": emb.field_match,
        }

    if args.mass_sweep:
        rng = np.random.default_rng(7)
        sweep = []
        for _ in range(args.mass_sweep):
            coef = rng.uniform(-1.0, 1.0, 5)
            fieldspec = residuals.GenericRotationField(
                f=lambda eta: np.exp(-eta ** 2),
                G=lambda t, r, c=coef: c[0] + c[1] * r + c[2] * r ** 2 + c[3] * r ** 3 + c[4] * r ** 4,
                a=lambda t: 1.0 + 0.5 * t,
                adot=lambda t: 0.5,
            )
            sweep.append(residuals.mass_residual_generic_g(
                fieldspec, args.time,
                residuals.GridSpec(kind="annulus", r_lo=max(grid.r_lo, 3 * grid.h),
                                   r_hi=grid.r_hi, n_r=grid.n_r, n_theta=grid.n_theta,
                                   h=grid.h, h_t=1e-4)))
        report["mass_sweep"] = {"max": max(sweep), "values": sweep}
        worst = max(worst, max(sweep))

    passed = worst <= args.tolerance
    report["max_normalized"] = worst
    report["tolerance"] = args.tolerance
    report["verdict"] = "PASS" if passed else "FAIL"
    csv_rows = [("family", eq, v["max"], v["mean"], v["scale"])
                for eq, v in report["family"]["equations"].items()]
    if "fixture_direct" in report:
        csv_rows += [("fixture-direct", eq, v["max"], v["mean"], v["scale"])
                     for eq, v in report["fixture_direct"]["equations"].items()]
    _emit(args, payload_json=report, csv_rows=csv_rows,
          csv_header=("check", "equation", "max_normalized", "mean_normalized", "scale"))
    return 0 if passed else 1


def cmd_verify3d(args):
    cfg_file = _load_config(args.config) if args.config else {}
    vcfg = cfg_file.get("verify3d", {})
    mode = _pick(args.mode, vcfg, "mode", "all")
    tol = _pick(args.tolerance, vcfg, "tolerance", 1e-6)
    h = _pick(args.h, vcfg, "h", 1e-3)
    cases = {
        "isotropic": residuals.ThreeAxisParams(gamma=5 / 3, K=1.0, xi3=1.0, alpha3=1.0),
        "drift": residuals.ThreeAxisParams(
            gamma=1.4, K=1.0, xi3=0.0, alpha3=1.0,
            drift0=(0.1, 0.0, -0.2), drift_rate=(0.3, -0.1, 0.05)),
        "anisotropic": residuals.ThreeAxisParams(
            gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0, a_init=(1.0, 1.2, 0.8),
            drift_rate=(0.1, 0.0, -0.05)),
    }
    if mode not in ("all", *cases):
        raise InvalidParams([f"UnknownMode:{mode}"])
    config = {"verify3d": {"mode": mode, "tolerance": tol, "h": h}}
    _maybe_emit_config(args, config)
    modes = tuple(cases) if mode == "all" else (mode,)
    report = {"config": config, "cases": {}}
    all_pass = True
    for name in modes:
        c3 = cases[name]
        scales = residuals.integrate_scales_3d(c3, 1.0)

        def residual(step, tolerance=None):
            grid = residuals.Grid3Spec(half_width=0.4, n=7, h=step, h_t=step / 2.0)
            return residuals.euler_residual_3d(c3, scales, 0.5, grid, tolerance=tolerance)

        rep = residual(h, tol)
        ladder = residuals.residual_convergence(residual, [4 * h, 2 * h, h])
        report["cases"][name] = {
            "residual": rep.as_dict(),
            "convergence": ladder,
            "scale_drift": float(np.max(scales.drift)),
        }
        all_pass = all_pass and rep.verdict == "PASS"
    report["verdict"] = "PASS" if all_pass else "FAIL"
    _emit(args, payload_json=report)
    return 0 if all_pass else 1


def cmd_fvbench(args):
    cfg_file = _load_config(args.config) if args.config else {}
    bcfg = cfg_file.get("fvbench", {})
    params = _resolve_params(args, cfg_file)
    horizon = _pick(args.horizon, bcfg, "horizon", 0.2)
    box = _pick(args.box, bcfg, "box_half_width", 1.2)
    cfl = _pick(args.cfl, bcfg, "cfl", 0.4)
    res_spec = _pick(args.resolutions, bcfg, "resolutions", "64,128,256")
    if isinstance(res_spec, str):
        resolutions = [int(r) for r in res_spec.split(",")]
    else:
        resolutions = [int(r) for r in res_spec]
    icfg = _resolve_integration(args, cfg_file, default_t_end=horizon + 0.1)
    fv_cfg = fv.FvConfig(x_lo=-box, x_hi=box, y_lo=-box, y_hi=box,
                         cfl=cfl, t0=0.0, t_end=horizon)
    config = _effective_config(params, icfg, {"fvbench": {
        "resolutions": resolutions, "box_half_width": box,
        "cfl": cfl, "horizon": horizon}})
    _maybe_emit_config(args, config)
    traj = integrate(params, icfg)
    report = fv.run_and_compare(params, traj, fv_cfg, resolutions)
    if args.dump_cells:
        finest = fv.run(params, traj, replace(fv_cfg, nx=resolutions[-1], ny=resolutions[-1]))
        _dump_cells(args.dump_cells, finest)
    hdr, body = report.rows()
    _emit(args, payload_json={"config": config, **report.as_dict()},
          csv_rows=body, csv_header=hdr)
    return 0


def _dump_cells(path, field):
    """Per-cell CSV dump (x, y, rho, m1, m2) of the interior for plotting."""
    xg, yg = field.cfg.centers()
    sl = (slice(1, -1), slice(1, -1))
    cols = [xg[sl].ravel(), yg[sl].ravel(), field.rho[sl].ravel(),
            field.m1[sl].ravel(), field.m2[sl].ravel()]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("x", "y", "rho", "m1", "m2"))
        for row in zip(*cols):
            w.writerow([_fmt(v) for v in row])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swirlgas",
        description="Swirling self-similar gas flows: exact fields, scale dynamics, "
                    "classification, residual verification, finite-volume benchmark.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="sample the exact flow field on a grid")
    _add_param_flags(p)
    _add_integration_flags(p)
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--grid-n", type=int, default=9)
    p.add_argument("--grid-extent", type=float, default=1.0)
    _add_out_flags(p, default_format="csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("integrate", help="integrate the scale equation")
    _add_param_flags(p)
    _add_integration_flags(p)
    _add_out_flags(p, default_format="csv")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("classify", help="classify the long-time regime")
    _add_param_flags(p)
    p.add_argument("--locate-blowup", action="store_true")
    p.add_argument("--certify", action="store_true",
                   help="cross-check the verdict by integration")
    p.add_argument("--horizon", type=float, default=20.0)
    _add_out_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("period", help="oscillation period of a trapped orbit")
    _add_param_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("verify", help="2D residual verification")
    _add_param_flags(p)
    _add_integration_flags(p)
    p.add_argument("--time", type=float, default=None, help="default 0.5")
    p.add_argument("--r-lo", type=float, default=None, help="default 0.3")
    p.add_argument("--r-hi", type=float, default=None, help="default 2.0")
    p.add_argument("--n-r", type=int, default=None, help="default 16")
    p.add_argument("--n-theta", type=int, default=None, help="default 24")
    p.add_argument("--h", type=float, default=None, help="default 1e-3")
    p.add_argument("--h-t", type=float, default=None, help="defaults to h/2")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--mu", type=float, default=0.0, help="viscosity for the NS check")
    p.add_argument("--mass-sweep", type=int, default=0,
                   help="number of random swirl profiles for the mass identity")
    _add_out_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify3d", help="three-axis 3D family residual harness")
    p.add_argument("--mode", choices=("isotropic", "drift", "anisotropic", "all"),
                   default=None, help="default all")
    p.add_argument("--h", type=float, default=None, help="default 1e-3")
    p.add_argument("--tolerance", type=float, default=None, help="default 1e-6")
    p.add_argument("--config", help="JSON config file (section \"verify3d\")")
    p.add_argument("--emit-config", metavar="PATH")
    _add_out_flags(p)
    p.set_defaults(func=cmd_verify3d)

    p = sub.add_parser("fvbench", help="finite-volume convergence study")
    _add_param_flags(p)
    _add_integration_flags(p)
    p.add_argument("--resolutions", default=None, help="default 64,128,256")
    p.add_argument("--box", type=float, default=None,
                   help="half-width of the square box (default 1.2)")
    p.add_argument("--cfl", type=float, default=None, help="default 0.4")
    p.add_argument("--horizon", type=float, default=None, help="default 0.2")
    p.add_argument("--dump-cells", metavar="PATH",
                   help="write the finest-run interior cells as CSV")
    _add_out_flags(p, default_format="csv")
    p.set_defaults(func=cmd_fvbench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SwirlgasError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "violations"):
            err["violations"] = exc.violations
        print(json.dumps(err), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
