"""Command-line front end.

Commands mirror the library surface one-to-one:

  eval       sample the exact flow field on a grid           -> CSV
  integrate  scale-factor trajectory with energy record      -> CSV (+ JSON)
  classify   long-time regime with certificate               -> JSON
  period     oscillation period via turning-point quadrature -> JSON
  verify     2D residual checks (family, fixture, swirl, NS) -> JSON
  verify3d   three-axis family residual harness              -> JSON
  fvbench    finite-volume convergence table                 -> CSV (+ JSON)

Each setting is one row of its command's table in COMMANDS: a flag, a config
key and a default.  A flag beats the --config file, which beats the default
(and a --preset).  Every JSON report embeds the resolved settings under
"config", the dict the command ran with; --emit-config writes it standalone
so that --config FILE reproduces the run exactly.

Exit codes: 0 on success/PASS, 1 on structured domain errors (a wrongly typed
config value too), 2 on usage or I/O errors (a config file that is not a JSON
object too).  All numbers are emitted with full round-trip precision, and
JSON is strict: a number that is not finite is written as null.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import fv, regimes, residuals
from .emden import IntegrationConfig, _check_span, integrate
from .errors import InvalidParams, SwirlgasError
from .fields import (
    ScaleState,
    SolutionParams,
    check_reach_squares,
    eval_flow_arrays,
    validate_params,
    zhang_zheng_arrays,
    zhang_zheng_embedding,
)
from .orbit import closed_form_gamma2

PRESETS = {
    "zhang-zheng": asdict(zhang_zheng_embedding()),
    "periodic-demo": dict(gamma=1.5, K=1.0, xi=1.0, lam=-2.0, alpha=1.0, a0=1.0, a1=0.0),
    "blowup-demo": dict(gamma=2.0, K=1.0, xi=1.0, lam=-2.0, alpha=1.0, a0=1.0, a1=0.0),
    "gamma3-critical": dict(gamma=3.0, K=1.0, xi=1.0, lam=-1.0, alpha=1.0, a0=2.0, a1=0.0),
    "linear-blowup-demo": dict(gamma=2.0, K=1.0, xi=1.0, lam=-1.0, alpha=1.0, a0=1.0, a1=-0.5),
    "generic-smooth": dict(gamma=1.4, K=1.0, xi=0.7, lam=0.9, alpha=1.0, a0=1.0, a1=0.3),
    "gamma2-oracle": dict(gamma=2.0, K=1.0, xi=1.0, lam=0.0, alpha=1.0, a0=1.0, a1=0.0),
}

THREE_AXIS_CASES = {
    "isotropic": residuals.ThreeAxisParams(gamma=5 / 3, K=1.0, xi3=1.0, alpha3=1.0),
    "drift": residuals.ThreeAxisParams(
        gamma=1.4, K=1.0, xi3=0.0, alpha3=1.0,
        drift0=(0.1, 0.0, -0.2), drift_rate=(0.3, -0.1, 0.05)),
    "anisotropic": residuals.ThreeAxisParams(
        gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0, a_init=(1.0, 1.2, 0.8),
        drift_rate=(0.1, 0.0, -0.05)),
}


# ---------------------------------------------------------------- settings


def int_list(text):
    """Comma-separated integers, e.g. "64,128,256"."""
    return [int(r) for r in text.split(",")]


class Derived(NamedTuple):
    """A default computed from the settings resolved before it."""

    text: str
    fn: Callable


class Setting(NamedTuple):
    """One setting: config section (None: top level) and key, type, default
    (None: left out of the config until given) and a flag other than --key.

    type is float, int (a count, never negative), bool, int_list or a tuple
    of the allowed strings."""

    section: str | None
    key: str
    type: object
    default: object = None
    flag: str | None = None
    help: str = ""

    @property
    def name(self):
        return self.key if self.section is None else f"{self.section}.{self.key}"


PARAMS = [Setting("params", f.name, float, help="from --preset when not given")
          for f in fields(SolutionParams)]


def _integration(t_end):
    """IntegrationConfig's settings with the command's t_end default."""
    return [Setting("integration", f.name, float, t_end if f.name == "t_end" else f.default)
            for f in fields(IntegrationConfig)]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(s: Setting, value):
    """A config-file value if it has the setting's type; ints pass as floats."""
    if s.type is float and (_is_int(value) or isinstance(value, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    elif (s.type is int and _is_int(value)
          or s.type is bool and isinstance(value, bool)
          or s.type is int_list and isinstance(value, list) and all(map(_is_int, value))
          or isinstance(s.type, tuple) and value in s.type):
        return value
    raise InvalidParams([f"WrongType:{s.name}"])


class ConfigFileError(Exception):
    """The --config file is not a JSON object; reported like an I/O error."""


def _load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # malformed JSON, or not text
            raise ConfigFileError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigFileError(f"{path}: the config must be a JSON object")
    return cfg


def _resolve_params(preset, given) -> SolutionParams:
    """The parameters: flags and file values over the --preset."""
    record = {**PRESETS.get(preset, {}), **given}
    if not record:
        raise SwirlgasError("no parameters given; use --preset, --config or explicit flags")
    return validate_params(record)


def _resolve(args) -> dict:
    """Every setting of the command, flag > config file > default, as the
    nested config dict that the command runs with and reports."""
    file_cfg = _load_config(args.config) if args.config else {}
    cfg = {"params": {}} if hasattr(args, "preset") else {}
    for s in COMMANDS[args.command].settings:
        where = file_cfg if s.section is None else file_cfg.get(s.section, {})
        if not isinstance(where, dict):
            raise InvalidParams([f"WrongType:{s.section}"])
        value = getattr(args, s.key)
        if value is None and s.key in where:
            value = _checked(s, where[s.key])
        if value is None:
            value = s.default.fn(cfg) if isinstance(s.default, Derived) else s.default
        if value is None:
            continue
        if s.type is float and not math.isfinite(value):
            if value == s.default:  # an unbounded default (max_step) stays out of the config
                continue
            raise InvalidParams([f"NonFinite:{s.name}"])
        if s.type is int and value < 0:
            raise InvalidParams([f"Negative:{s.name}"])
        (cfg if s.section is None else cfg.setdefault(s.section, {}))[s.key] = value
    if hasattr(args, "preset"):
        cfg["params"] = asdict(_resolve_params(args.preset, cfg["params"]))
    return cfg


def _fmt(v):
    """Full-precision scalar formatting (shortest round-trip repr)."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _emit(args, report, csv_header=None, csv_rows=None):
    """Write the report, or its CSV table in --format csv, to --out or stdout."""
    target = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with target as fh:
        if args.format == "csv" and csv_rows is not None:
            _write_csv(fh, csv_header, ([_fmt(v) for v in row] for row in csv_rows))
        else:
            fh.write(_dumps(report) + "\n")


def _write_csv(fh, header, rows):
    """Rows of strings joined as csv.writer would: no field needs quoting."""
    fh.write(",".join(header) + "\r\n")
    fh.writelines(line + "\r\n" for line in map(",".join, rows))


def _dumps(obj) -> str:
    """Strict JSON, which has no Infinity or NaN: a non-finite float is null."""
    return json.dumps(_plain(obj), indent=2, allow_nan=False)


def _plain(obj):
    """obj with numpy values as Python ones and non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj.item() if isinstance(obj, np.integer) else obj


# ---------------------------------------------------------------- commands


def cmd_eval(args, cfg):
    params = SolutionParams(**cfg["params"])
    icfg = IntegrationConfig(**cfg["integration"])
    time = cfg["time"]
    if not time >= 0.0:
        raise InvalidParams(["Negative:time"])

    if time > 0:
        traj = integrate(params, icfg)
        _check_span(traj, time, time)   # a run that ended early, or a time past t_end
        state, diagnostics = traj.state_at(time), traj.diagnostics
    else:
        state, diagnostics = ScaleState(t=0.0, a=params.a0, adot=params.a1), None

    ext = cfg["grid_extent"]
    check_reach_squares(math.hypot(ext, ext), state.a, "grid_extent")
    xs = np.linspace(-ext, ext, cfg["grid_n"])
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    rho, u1, u2, p = eval_flow_arrays(params, state, xg.ravel(), yg.ravel())
    rows = np.column_stack([xg.ravel(), yg.ravel(), rho, u1, u2, p])
    _emit(args, {"config": cfg, "state": asdict(state), "diagnostics": diagnostics,
                 "samples": rows.tolist()},
          ("x", "y", "rho", "u1", "u2", "p"), rows)
    return 0


def cmd_integrate(args, cfg):
    traj = integrate(SolutionParams(**cfg["params"]), IntegrationConfig(**cfg["integration"]))
    summary = {"config": cfg, "terminal": asdict(traj.terminal), "nodes": int(traj.ts.size),
               "energy_drift": float(traj.drift.max()), "E0": float(traj.E[0]),
               "diagnostics": traj.diagnostics}
    _emit(args, summary, ("t", "a", "adot", "E", "F_kin", "F_pot"), traj.csv_rows())
    return 0


def cmd_classify(args, cfg):
    params = SolutionParams(**cfg["params"])
    regime = regimes.classify(params, locate_blowup=cfg["locate_blowup"])
    report = {"config": cfg, **asdict(regime)}
    if cfg["certify"]:
        report["certification"] = asdict(regimes.certify(params, regime, horizon=cfg["horizon"]))
    _emit(args, report)
    return 0


def cmd_period(args, cfg):
    pr = regimes.period_quadrature(SolutionParams(**cfg["params"]))
    _emit(args, {"config": cfg, **asdict(pr)})
    return 0


def cmd_verify(args, cfg):
    params = SolutionParams(**cfg["params"])
    time_at, mu, tolerance = cfg["time"], cfg["mu"], cfg["tolerance"]
    if not tolerance > 0.0:
        raise InvalidParams(["NonPositive:tolerance"])
    grid = residuals.GridSpec(kind="annulus", **cfg["grid"])
    traj = integrate(params, IntegrationConfig(**cfg["integration"]))
    report = {"config": cfg, "diagnostics": traj.diagnostics}

    rep = residuals.euler_residual_2d(params, traj, time_at, grid)
    report["family"] = rep.as_dict()
    worst = rep.max_normalized

    if mu:
        rep_ns = residuals.euler_residual_2d(params, traj, time_at, grid, mu=mu)
        report["viscous"] = {"mu": mu, "residual_with_viscous": rep_ns.as_dict(),
                             "viscous_term_normalized": rep_ns.viscous_term_normalized,
                             "max_difference": abs(rep_ns.max_normalized - worst)}

    if params == zhang_zheng_embedding(params.K):
        t_fix = 1.0 + time_at  # family clock starts at the fixture time 1
        gz = replace(grid, r_lo=max(grid.r_lo, 3 * grid.h), h=grid.h / 2.0)
        zz = residuals.zz_direct_residual(t_fix, params.K, gz)
        report["fixture_direct"] = zz.as_dict()
        worst = max(worst, zz.max_normalized)
        rng = np.random.default_rng(0)
        xr = rng.uniform(-2, 2, 100)
        yr = rng.uniform(-2, 2, 100)
        rho_f, u1_f, u2_f, _ = eval_flow_arrays(params, closed_form_gamma2(params, time_at), xr, yr)
        rho_z, u1_z, u2_z, _ = zhang_zheng_arrays(t_fix, xr, yr, params.K)
        report["embedding_match"] = {
            "density_max_diff": float(np.max(np.abs(rho_f - rho_z))),
            "speed_max_diff": float(np.max(np.abs(np.hypot(u1_f, u2_f) - np.hypot(u1_z, u2_z)))),
            "chirality": "clockwise",
            "field_match": "exact",
        }

    if cfg["mass_sweep"]:
        rng = np.random.default_rng(7)
        grid_m = replace(grid, r_lo=max(grid.r_lo, 3 * grid.h), h_t=1e-4)
        sweep = []
        for _ in range(cfg["mass_sweep"]):
            coef = rng.uniform(-1.0, 1.0, 5)
            fieldspec = residuals.GenericRotationField(
                f=lambda eta: np.exp(-eta ** 2),
                G=lambda t, r, c=coef: c[0] + c[1] * r + c[2] * r ** 2 + c[3] * r ** 3 + c[4] * r ** 4,
                a=lambda t: 1.0 + 0.5 * t,
                adot=lambda t: 0.5,
            )
            sweep.append(residuals.mass_residual_generic_g(fieldspec, time_at, grid_m))
        report["mass_sweep"] = {"max": max(sweep), "values": sweep}
        worst = max(worst, max(sweep))

    passed = worst <= tolerance
    report["max_normalized"] = worst
    report["tolerance"] = tolerance
    report["verdict"] = "PASS" if passed else "FAIL"
    csv_rows = [(check.replace("_", "-"), eq, v["max"], v["mean"], v["scale"])
                for check in ("family", "fixture_direct") if check in report
                for eq, v in report[check]["equations"].items()]
    _emit(args, report, ("check", "equation", "max_normalized", "mean_normalized", "scale"),
          csv_rows)
    return 0 if passed else 1


def cmd_verify3d(args, cfg):
    mode, tol, h = (cfg["verify3d"][k] for k in ("mode", "tolerance", "h"))
    if not tol > 0.0:
        raise InvalidParams(["NonPositive:verify3d.tolerance"])
    report = {"config": cfg, "cases": {}}
    all_pass = True
    for name in THREE_AXIS_CASES if mode == "all" else (mode,):
        c3 = THREE_AXIS_CASES[name]
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
            "diagnostics": scales.diagnostics,
        }
        all_pass = all_pass and rep.verdict == "PASS"
    report["verdict"] = "PASS" if all_pass else "FAIL"
    _emit(args, report)
    return 0 if all_pass else 1


def cmd_fvbench(args, cfg):
    params = SolutionParams(**cfg["params"])
    bcfg = cfg["fvbench"]
    box, resolutions = bcfg["box_half_width"], bcfg["resolutions"]
    fv_cfg = fv.FvConfig(x_lo=-box, x_hi=box, y_lo=-box, y_hi=box,
                         cfl=bcfg["cfl"], t0=0.0, t_end=bcfg["horizon"])
    fv.check_horizon(fv_cfg)  # before integrating to the derived horizon + 0.1
    traj = integrate(params, IntegrationConfig(**cfg["integration"]))
    dump = (lambda field: _dump_cells(args.dump_cells, field)) if args.dump_cells else None
    report = fv.run_and_compare(params, traj, fv_cfg, resolutions, on_finest=dump)
    _emit(args, {"config": cfg, **asdict(report)}, *report.rows())
    return 0


def _dump_cells(path, field):
    """Per-cell CSV dump (x, y, rho, m1, m2) of the interior for plotting."""
    xg, yg = field.cfg.centers()
    sl = (slice(1, -1), slice(1, -1))
    cols = [xg[sl].ravel(), yg[sl].ravel(), field.rho[sl].ravel(),
            field.m1[sl].ravel(), field.m2[sl].ravel()]
    rows = zip(*(map(repr, col.tolist()) for col in cols))  # shortest round-trip reprs
    with open(path, "w", newline="") as fh:
        _write_csv(fh, ("x", "y", "rho", "m1", "m2"), rows)


class Command(NamedTuple):
    run: Callable
    help: str
    format: str  # default output format
    settings: list


COMMANDS = {
    "eval": Command(cmd_eval, "sample the exact flow field on a grid", "csv", [
        *PARAMS,
        Setting(None, "time", float, 0.0),
        Setting(None, "grid_n", int, 9),
        Setting(None, "grid_extent", float, 1.0),
        *_integration(Derived("max(time, 1e-6)", lambda c: max(c["time"], 1e-6)))]),
    "integrate": Command(cmd_integrate, "integrate the scale equation", "csv",
                         [*PARAMS, *_integration(10.0)]),
    "classify": Command(cmd_classify, "classify the long-time regime", "json", [
        *PARAMS,
        Setting(None, "locate_blowup", bool, False),
        Setting(None, "certify", bool, False, help="cross-check the verdict by integration"),
        Setting(None, "horizon", float, 20.0)]),
    "period": Command(cmd_period, "oscillation period of a trapped orbit", "json", PARAMS),
    "verify": Command(cmd_verify, "2D residual verification", "json", [
        *PARAMS,
        Setting(None, "time", float, 0.5),
        *_integration(Derived("2 * time", lambda c: 2.0 * c["time"])),
        Setting("grid", "r_lo", float, 0.3),
        Setting("grid", "r_hi", float, 2.0),
        Setting("grid", "n_r", int, 16),
        Setting("grid", "n_theta", int, 24),
        Setting("grid", "h", float, 1e-3),
        Setting("grid", "h_t", float, Derived("h/2", lambda c: 0.5 * c["grid"]["h"])),
        Setting(None, "tolerance", float, 1e-6),
        Setting(None, "mu", float, 0.0, help="viscosity for the NS check"),
        Setting(None, "mass_sweep", int, 0,
                help="number of random swirl profiles for the mass identity")]),
    "verify3d": Command(cmd_verify3d, "three-axis 3D family residual harness", "json", [
        Setting("verify3d", "mode", (*THREE_AXIS_CASES, "all"), "all"),
        Setting("verify3d", "tolerance", float, 1e-6),
        Setting("verify3d", "h", float, 1e-3)]),
    "fvbench": Command(cmd_fvbench, "finite-volume convergence study", "csv", [
        *PARAMS,
        Setting("fvbench", "resolutions", int_list, (64, 128, 256)),
        Setting("fvbench", "box_half_width", float, 1.2, flag="--box",
                help="half-width of the square box"),
        Setting("fvbench", "cfl", float, 0.4),
        Setting("fvbench", "horizon", float, 0.2),
        *_integration(Derived("horizon + 0.1", lambda c: c["fvbench"]["horizon"] + 0.1))]),
}


def _help(s: Setting):
    """The row's help text followed by its default."""
    default = s.default.text if isinstance(s.default, Derived) else s.default
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    if default is None:
        return s.help or "unset by default"
    return f"{s.help} (default {default})" if s.help else f"default {default}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swirlgas",
        description="Swirling self-similar gas flows: exact fields, scale dynamics, "
                    "classification, residual verification, finite-volume benchmark.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if PARAMS[0] in cmd.settings:
            p.add_argument("--preset", choices=sorted(PRESETS),
                           help="named parameter set, beneath the config file")
        for s in cmd.settings:
            kind = (dict(action="store_true") if s.type is bool else
                    dict(choices=s.type) if isinstance(s.type, tuple) else dict(type=s.type))
            p.add_argument(s.flag or "--" + s.key.replace("_", "-"), dest=s.key,
                           default=None, help=_help(s), **kind)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument("--emit-config", metavar="PATH",
                       help="write the resolved config as JSON and continue")
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default=cmd.format,
                       help=f"default {cmd.format}")
    sub.choices["fvbench"].add_argument("--dump-cells", metavar="PATH",
                                        help="write the finest-run interior cells as CSV")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.emit_config:
            with open(args.emit_config, "w") as fh:
                fh.write(_dumps(cfg) + "\n")
        return COMMANDS[args.command].run(args, cfg)
    except SwirlgasError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "violations"):
            err["violations"] = exc.violations
        print(json.dumps(err), file=sys.stderr)
        return 1
    except (OSError, ConfigFileError) as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
