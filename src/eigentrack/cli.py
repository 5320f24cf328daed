"""Command-line surface: scenario selection, execution, file output.

Four subcommands: ``run`` (track a flow and write trajectory.csv +
report.json), ``formulas`` (print the formula catalog), ``baseline``
(decompose-and-hold comparison), ``converge`` (sampling-gap sweep).

Configuration comes from an optional JSON file (--config) overridden by
flags; every value has a default, and the defaults reproduce the
benchmark scenario (conjugated 7x7 flow, jumps at t=8 and t=14.5,
tau=0.005, eta=4.5, ifd5).  Exit codes: 0 clean, 2 configuration error,
3 numerical abort (partial trajectory still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .flows import (FlowFileError, JumpSchedule, MatrixFlow,
                    OrthogonalRandomizer, builtin_flows,
                    conjugate, constant_flow, diag_linear_flow,
                    flow_from_file, with_jumps)
from .formulas import (BackwardFormula, LookaheadRecursion, catalog,
                       check_zero_stability)
from .harness import (build_report, convergence_sweep, naive_baseline,
                      timed_run)
from .znn import NumericalAbort, SolverConfig

__all__ = ["main"]

_BUILTIN_NAMES = ("paper", "paper-raw", "constant3", "diag-linear")
_PAPER_FLOWS = ("paper", "paper-raw")
_DEFAULT_SEED = 7
_DEFAULT_JUMPS = (8.0, 14.5)
_METRICS = {"per-pair": "pair", "full-matrix": "matrix"}

# the config file's keys and their defaults; jumps and randomize_seed
# are resolved per flow and command in _merge_config
_DEFAULTS = {
    "flow": "paper",
    "randomize_seed": None,
    "jumps": None,
    "tau": 0.005,
    "eta": 4.5,
    "mu": None,
    "preset": "ifd5",
    "jump_threshold": 300.0,
    "t0": 0.0,
    "tf": 20.0,
    "output": "",
    "metric": "per-pair",
}


class ConfigError(Exception):
    pass


def _parse_jumps(text: str):
    text = text.strip()
    if not text:
        return None
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse jump list {text!r}") from exc


def _merge_config(args) -> dict:
    """Defaults, overridden by the --config file, overridden by flags.

    Unspecified jumps are the benchmark's on the paper flows, none
    elsewhere, and always none for ``converge``: a sweep across a
    discontinuity would measure restart behaviour, not formula order.
    """
    given = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(given) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in _DEFAULTS.keys() - {"randomize_seed", "jumps"}:
        if getattr(args, key) is not None:     # a flag of the same name
            given[key] = getattr(args, key)
    if args.seed is not None:
        given["randomize_seed"] = args.seed
    if args.jumps is not None:
        given["jumps"] = _parse_jumps(args.jumps)
    cfg = {**_DEFAULTS, **given}
    _validate_config(cfg)
    if args.command == "converge":
        if cfg["jumps"]:
            raise ConfigError("converge runs on the smooth flow; drop jumps")
        cfg["jumps"] = None
    elif "jumps" not in given and cfg["flow"] in _PAPER_FLOWS:
        cfg["jumps"] = list(_DEFAULT_JUMPS)
    if cfg["jumps"] is not None:
        cfg["jumps"] = [float(t) for t in cfg["jumps"]]
    if cfg["randomize_seed"] is None and cfg["flow"] == "paper":
        cfg["randomize_seed"] = _DEFAULT_SEED
    return cfg


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_config(cfg: dict) -> None:
    """What SolverConfig cannot check: JSON types, flow, metric, seed and
    the jump list.  Numeric ranges are SolverConfig's."""
    flow = cfg["flow"]
    if not isinstance(flow, str) or not flow:
        raise ConfigError("flow must be a builtin name or a file path")
    for key in ("tau", "eta", "jump_threshold", "t0", "tf"):
        if not _is_number(cfg[key]):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    if cfg["mu"] is not None and not _is_number(cfg["mu"]):
        raise ConfigError("mu must be a number or null")
    if not isinstance(cfg["preset"], str):
        raise ConfigError(f"preset must be a string, got {cfg['preset']!r}")
    if cfg["metric"] not in _METRICS:
        raise ConfigError("metric must be 'per-pair' or 'full-matrix'")
    seed = cfg["randomize_seed"]
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        raise ConfigError("randomize_seed must be an integer or null")
    jumps = cfg["jumps"]
    if jumps is not None:
        if (not isinstance(jumps, (list, tuple))
                or not all(_is_number(t) and math.isfinite(t)
                           for t in jumps)):
            raise ConfigError("jumps must be a list of finite times or null")
        if list(jumps) != sorted(jumps) or len(set(jumps)) != len(jumps):
            raise ConfigError("jumps must be strictly increasing")
        if flow not in _PAPER_FLOWS:
            raise ConfigError(
                f"jumps are only defined for the 'paper'/'paper-raw' "
                f"flows, not {flow!r}")


def _resolve_flow(cfg: dict) -> MatrixFlow:
    """Build the MatrixFlow a merged config describes."""
    name = cfg["flow"]
    if name in _PAPER_FLOWS:
        pool = builtin_flows()
        base, alt = pool["A_s"], pool["A_sj"]
        if name == "paper":
            rand = OrthogonalRandomizer.from_seed(base.n,
                                                  cfg["randomize_seed"])
            base = conjugate(base, rand)
            alt = conjugate(alt, rand)
        if cfg["jumps"]:
            return with_jumps(base, alt, JumpSchedule(cfg["jumps"]))
        return base
    if name == "constant3":
        return constant_flow(np.eye(3), label="constant3")
    if name == "diag-linear":
        return diag_linear_flow()
    if os.path.exists(name):
        try:
            return flow_from_file(name)
        except FlowFileError as exc:
            raise ConfigError(f"bad flow file {name!r}: {exc}") from exc
    raise ConfigError(
        f"flow {name!r} is neither a builtin "
        f"({', '.join(_BUILTIN_NAMES)}) nor an existing file")


def _solver_config(cfg: dict) -> SolverConfig:
    """The run parameters of a merged config; raises ValueError on a bad
    value (SolverConfig's checks)."""
    return SolverConfig.from_preset(
        cfg["preset"], tau=float(cfg["tau"]), eta=float(cfg["eta"]),
        mu=(None if cfg["mu"] is None else float(cfg["mu"])),
        jump_threshold=float(cfg["jump_threshold"]),
        t0=float(cfg["t0"]), tf=float(cfg["tf"]))


def _config_echo(cfg: dict, solver: SolverConfig) -> dict:
    return dict(cfg, recursion=solver.recursion, derivative=solver.derivative)


def _out_path(prefix: str, leaf: str) -> str:
    path = prefix + leaf if prefix else leaf
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _write_trajectory_csv(path: str, traj) -> None:
    n = traj.n
    header = ("t,pair,lambda,"
              + ",".join(f"x_{i}" for i in range(1, n + 1))
              + ",residual,solve_method,event")
    row = "%.17g,%d," + "%.17g," * (n + 2) + "%s,%s\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for k in range(traj.times.size):
            t, kind = traj.times[k], traj.kind[k]
            methods = traj.solve_methods[k]
            res = traj.residuals[k].tolist()
            for i, z in enumerate(traj.z[k].tolist()):
                fh.write(row % (t, i + 1, z[n], *z[:n], res[i], methods[i],
                                kind))


def _json_safe(value):
    """``value`` with every NaN or infinite float replaced by None.

    JSON has no literal for them, and strict parsers reject the
    ``NaN``/``Infinity`` tokens ``json`` would otherwise write.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(val) for val in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def cmd_run(cfg: dict, solver: SolverConfig) -> int:
    flow = _resolve_flow(cfg)
    prefix = cfg["output"]
    csv_path = _out_path(prefix, "trajectory.csv")
    json_path = _out_path(prefix, "report.json")
    aborted = None
    try:
        traj, elapsed = timed_run(flow, solver)
    except NumericalAbort as exc:
        traj, elapsed = exc.trajectory, None
        aborted = str(exc)
    _write_trajectory_csv(csv_path, traj)
    report = build_report(flow, traj, elapsed=elapsed,
                          metric=_METRICS[cfg["metric"]])
    payload = {
        "command": "run",
        "config": _config_echo(cfg, solver),
        "summary": report.summary,
        "restarts": [[t, v] for t, v in report.restarts],
        "excluded_windows": [[r, lo, hi]
                             for r, lo, hi in report.excluded_windows],
        "segments": report.segments,
        "aborted": aborted,
    }
    _write_json(json_path, payload)
    if aborted is not None:
        print(f"numerical abort: {aborted}", file=sys.stderr)
        print(f"partial trajectory written to {csv_path}", file=sys.stderr)
        return 3
    summary = report.summary
    print(f"wrote {csv_path} and {json_path} "
          f"({traj.times.size} instants, "
          f"{summary['restarts']} restarts){_whole_run(summary)}")
    return 0


def _whole_run(summary: dict) -> str:
    """The whole-run maxima and the instants the steady summary left out,
    as a tail for the run command's one-line result."""
    if "run_max_residual" not in summary:
        return ""
    return (f"; whole run: max residual {summary['run_max_residual']:.2e}, "
            f"max orth deviation {summary['run_max_orth_deviation']:.2e}, "
            f"max |x'x-1| {summary['run_max_norm_defect']:.2e}, "
            f"{summary['excluded_instants']} of "
            f"{summary['predicted_instants']} predicted instants outside "
            f"the steady summary")


def cmd_formulas(as_json: bool) -> int:
    entries = catalog()
    if as_json:
        payload = {"backward": [], "recursions": []}
        for name in sorted(entries):
            rule = entries[name]
            if isinstance(rule, BackwardFormula):
                payload["backward"].append({
                    "name": rule.name,
                    "coefficients": [str(c) for c in rule.coeffs],
                    "denominator": rule.denom,
                    "taps": rule.taps,
                    "order": rule.order,
                })
            else:
                stab = check_zero_stability(rule)
                payload["recursions"].append({
                    "name": rule.name,
                    "c": str(rule.c),
                    "a": [str(f) for f in rule.a],
                    "taps": rule.taps,
                    "order": rule.order,
                    "reconstructed": rule.reconstructed,
                    "stable": stab.stable,
                    "root_moduli": [float(m) for m in stab.root_moduli],
                })
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    backward = [r for r in entries.values()
                if isinstance(r, BackwardFormula)]
    recursions = [r for r in entries.values()
                  if isinstance(r, LookaheadRecursion)]
    print("Backward derivative formulas")
    for rule in sorted(backward, key=lambda r: r.name):
        coeffs = ",".join(str(c) for c in rule.coeffs)
        print(f"  {rule.name:7s} coefficients ({coeffs}) over "
              f"{rule.denom}*tau, taps {rule.taps}, order {rule.order}")
    print("Look-ahead recursions")
    for rule in sorted(recursions, key=lambda r: r.name):
        stab = check_zero_stability(rule)
        a_txt = ", ".join(str(f) for f in rule.a)
        moduli = ", ".join(f"{m:.6f}" for m in stab.root_moduli)
        tag = " [reconstructed]" if rule.reconstructed else ""
        state = "stable" if stab.stable else "UNSTABLE"
        print(f"  {rule.name:7s} c={rule.c}, a=({a_txt}), taps {rule.taps}, "
              f"order {rule.order}{tag}")
        print(f"          zero-{state}; root moduli {moduli}")
    return 0


def cmd_baseline(cfg: dict, solver: SolverConfig) -> int:
    flow = _resolve_flow(cfg)
    rep = naive_baseline(flow, tau=solver.tau, t0=solver.t0, tf=solver.tf,
                         metric=_METRICS[cfg["metric"]])
    prefix = cfg["output"]
    csv_path = _out_path(prefix, "baseline.csv")
    json_path = _out_path(prefix, "report.json")
    n = rep.residuals.shape[1]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,pair,residual\n")
        for k in range(rep.times.size):
            t_txt = _g17(rep.times[k])
            for i in range(n):
                fh.write(f"{t_txt},{i + 1},{_g17(rep.residuals[k, i])}\n")
    _write_json(json_path, {
        "command": "baseline",
        "config": _config_echo(cfg, solver),
        "summary": rep.summary,
    })
    print(f"wrote {csv_path} and {json_path} "
          f"(median residual {rep.summary['median_residual']:.3e})")
    return 0


def cmd_converge(cfg: dict, solver: SolverConfig, taus: List[float]) -> int:
    flow = _resolve_flow(cfg)
    sweep = convergence_sweep(flow, solver, taus)
    prefix = cfg["output"]
    csv_path = _out_path(prefix, "converge.csv")
    json_path = _out_path(prefix, "report.json")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau,eta,median_residual\n")
        for tau_i, eta_i, med in zip(sweep.taus, sweep.etas, sweep.medians):
            fh.write(f"{_g17(tau_i)},{_g17(eta_i)},{_g17(med)}\n")
    _write_json(json_path, {
        "command": "converge",
        "config": _config_echo(cfg, solver),
        "taus": [float(t) for t in sweep.taus],
        "etas": [float(e) for e in sweep.etas],
        "medians": [float(m) for m in sweep.medians],
        "slope": sweep.slope,
    })
    print(f"wrote {csv_path} and {json_path} (slope {sweep.slope:.3f})")
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--flow", help="builtin flow name or flow file path")
    sub.add_argument("--preset", help="formula preset: ifd5, ifd6, ifd7")
    sub.add_argument("--tau", type=float, help="sampling gap")
    sub.add_argument("--eta", type=float, help="decay constant")
    sub.add_argument("--mu", type=float,
                     help="normalization decay constant (default eta)")
    sub.add_argument("--jumps",
                     help="comma-separated jump times; empty string for none")
    sub.add_argument("--jump-threshold", type=float, dest="jump_threshold",
                     help="derivative norm that triggers a restart")
    sub.add_argument("--t0", type=float, help="span start")
    sub.add_argument("--tf", type=float, help="span end")
    sub.add_argument("--seed", type=int,
                     help="randomizer seed for the conjugated flow")
    sub.add_argument("--output", help="output path prefix")
    sub.add_argument("--metric", choices=sorted(_METRICS),
                     help="residual metric for summaries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigentrack",
        description="One-step-ahead eigendecomposition prediction for "
                    "time-varying symmetric matrix flows.")
    subs = parser.add_subparsers(dest="command", required=True)
    p_run = subs.add_parser("run", help="track a flow, write trajectory "
                                        "and report")
    _add_common(p_run)
    p_form = subs.add_parser("formulas", help="print the formula catalog")
    p_form.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    p_base = subs.add_parser("baseline",
                             help="decompose-and-hold comparison run")
    _add_common(p_base)
    p_conv = subs.add_parser("converge", help="sampling-gap refinement sweep")
    _add_common(p_conv)
    p_conv.add_argument("--taus", required=True,
                        help="comma-separated list of sampling gaps (>= 3)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "formulas":
        return cmd_formulas(args.as_json)
    try:
        cfg = _merge_config(args)
        solver = _solver_config(cfg)
        if args.command == "run":
            return cmd_run(cfg, solver)
        if args.command == "baseline":
            return cmd_baseline(cfg, solver)
        taus = [float(p) for p in args.taus.split(",") if p.strip()]
        return cmd_converge(cfg, solver, taus)
    except (ConfigError, ValueError) as exc:   # SpanError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
