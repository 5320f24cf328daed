"""Command-line surface: scenario selection, execution, file output.

Four subcommands: ``run`` (track a flow and write trajectory.csv +
report.json), ``formulas`` (print the formula catalog), ``baseline``
(decompose-and-hold comparison), ``converge`` (sampling-gap sweep).

Configuration comes from an optional JSON file (--config) overridden by
flags; every value has a default, and the defaults reproduce the
benchmark scenario: the conjugated 7x7 flow with jumps at t=8 and
t=14.5, and the run parameters of ``SolverConfig()``, which also checks
them.  Exit codes: 0 clean, 2 configuration error, 3 numerical abort
(``run`` still writes the partial trajectory; ``baseline`` and
``converge`` write nothing, and ``converge`` names the sampling gap that
failed).
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .formulas import PRESETS, BackwardFormula, catalog, check_zero_stability
from .g17 import _g17_cells, _instant_blocks, _rows_text, _words
from .harness import (build_report, convergence_sweep, naive_baseline,
                      timed_run)
from .znn import _PREDICTED, KINDS, NumericalAbort, SolverConfig

__all__ = ["main"]

_BUILTIN_NAMES = ("paper", "paper-raw", "constant3", "diag-linear")
_PAPER_FLOWS = ("paper", "paper-raw")
_DEFAULT_SEED = 7
_DEFAULT_JUMPS = (8.0, 14.5)
_METRICS = {"per-pair": "pair", "full-matrix": "matrix"}

# the run parameters: SolverConfig's fields and defaults
_RUN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
# the config file's keys and their defaults; jumps and randomize_seed
# are resolved per flow and command in _merge_config
_DEFAULTS = {
    "flow": "paper",
    "randomize_seed": None,
    "jumps": None,
    **_RUN_DEFAULTS,
    "output": "",
    "metric": "per-pair",
}


class ConfigError(Exception):
    pass


def _parse_numbers(text: str, name: str) -> List[float]:
    """A comma-separated list of numbers; an empty item is an error."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} list {text!r}") from exc


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
    if args.jumps is not None:      # an empty --jumps means no jumps
        given["jumps"] = (_parse_numbers(args.jumps, "jumps")
                          if args.jumps.strip() else None)
    cfg = {**_DEFAULTS, **given}
    _validate_config(cfg)
    if args.command == "converge":
        if cfg["jumps"]:
            raise ConfigError("converge runs on the smooth flow; drop jumps")
        cfg["jumps"] = None
    elif "jumps" not in given and cfg["flow"] in _PAPER_FLOWS:
        cfg["jumps"] = list(_DEFAULT_JUMPS)
    if cfg["jumps"] is not None:
        try:
            cfg["jumps"] = [float(t) for t in cfg["jumps"]]
        except OverflowError:
            raise ConfigError("jumps must be finite numbers") from None
    if cfg["randomize_seed"] is None and cfg["flow"] == "paper":
        cfg["randomize_seed"] = _DEFAULT_SEED
    return cfg


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_config(cfg: dict) -> None:
    """The keys that are not run parameters: flow, metric, seed and the
    jump list's JSON type, and that a seed or jumps suit the flow.  The
    run parameters are SolverConfig's to check, and the jump times
    JumpSchedule's."""
    flow = cfg["flow"]
    if not isinstance(flow, str) or not flow:
        raise ConfigError("flow must be a builtin name or a file path")
    if not isinstance(cfg["metric"], str) or cfg["metric"] not in _METRICS:
        raise ConfigError("metric must be 'per-pair' or 'full-matrix'")
    seed = cfg["randomize_seed"]
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        raise ConfigError("randomize_seed must be an integer or null")
    if seed is not None and flow != "paper":
        raise ConfigError(f"randomize_seed only applies to the conjugated "
                          f"'paper' flow, not {flow!r}")
    jumps = cfg["jumps"]
    if jumps is not None:
        if (not isinstance(jumps, (list, tuple))
                or not all(map(_is_number, jumps))):
            raise ConfigError("jumps must be a list of numbers or null")
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
    return SolverConfig(**{key: cfg[key] for key in _RUN_DEFAULTS})


def _config_echo(cfg: dict, solver: SolverConfig) -> dict:
    return dict(cfg, recursion=solver.recursion, derivative=solver.derivative)


def _out_path(prefix: str, leaf: str) -> str:
    path = prefix + leaf if prefix else leaf
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _instant_rows(times, columns, pairs, tails=None) -> bytes:
    """Rows ``t,pair,v_1,...,v_c[,tail]`` for a block of instants:
    ``times`` (b,), ``columns`` (b, n, k) arrays whose k's sum to c,
    ``pairs`` the words of "1," to "n,", ``tails`` (b, n, w) words of
    trailing text or None."""
    b, n = columns[0].shape[:2]
    c = sum(col.shape[2] for col in columns)
    values = np.empty(b + b * n * c)
    values[:b] = times
    np.concatenate(columns, axis=2, out=values[b:].reshape(b, n, c))
    cells = _g17_cells(values)
    del values
    parts = [np.broadcast_to(cells[:b, None], (b, n, 4)),
             np.broadcast_to(pairs, (b,) + pairs.shape),
             cells[b:].reshape(b, n, 4 * c)]
    if tails is not None:
        parts.append(tails)
    rows = np.concatenate(parts, axis=2)
    del cells, parts
    return _rows_text(rows)


def _pair_words(n: int) -> np.ndarray:
    return _words([b"%d," % i for i in range(1, n + 1)])


_SOLVE_LABELS = ("direct", "least-squares", "static")


def _write_trajectory_csv(path: str, traj) -> None:
    n = traj.n
    header = ("t,pair,lambda,"
              + ",".join(f"x_{i}" for i in range(1, n + 1))
              + ",residual,solve_method,event\n")
    # each row's tail "solve_method,event," as an index into `tails`;
    # startup and restart rows hold static eigendata, not a solve
    kind = traj.kind_code
    code = traj.lstsq.astype(np.uint8)
    code[kind != _PREDICTED] = 2
    code *= len(KINDS)
    code += kind[:, None]
    tails = _words([f"{label},{k},".encode() for label in _SOLVE_LABELS
                    for k in KINDS])
    pairs = _pair_words(n)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for block in _instant_blocks(traj.times.size, n * (n + 2) + 1):
            z = traj.z[block]
            columns = [z[..., n:], z[..., :n], traj.residuals[block, :, None]]
            fh.write(_instant_rows(traj.times[block], columns, pairs,
                                   tails[code[block]]))


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
    payload = {"backward": [], "recursions": []}
    for _, rule in sorted(catalog().items()):
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
    if as_json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print("Backward derivative formulas")
    for f in payload["backward"]:
        print(f"  {f['name']:7s} coefficients ({','.join(f['coefficients'])})"
              f" over {f['denominator']}*tau, taps {f['taps']}, "
              f"order {f['order']}")
    print("Look-ahead recursions")
    for r in payload["recursions"]:
        moduli = ", ".join(f"{m:.6f}" for m in r["root_moduli"])
        tag = " [reconstructed]" if r["reconstructed"] else ""
        state = "stable" if r["stable"] else "UNSTABLE"
        print(f"  {r['name']:7s} c={r['c']}, a=({', '.join(r['a'])}), "
              f"taps {r['taps']}, order {r['order']}{tag}")
        print(f"          zero-{state}; root moduli {moduli}")
    return 0


def cmd_baseline(cfg: dict, solver: SolverConfig) -> int:
    flow = _resolve_flow(cfg)
    try:
        rep = naive_baseline(flow, tau=solver.tau, t0=solver.t0,
                             tf=solver.tf, metric=_METRICS[cfg["metric"]])
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    prefix = cfg["output"]
    csv_path = _out_path(prefix, "baseline.csv")
    json_path = _out_path(prefix, "report.json")
    pairs = _pair_words(rep.residuals.shape[1])
    with open(csv_path, "wb") as fh:
        fh.write(b"t,pair,residual\n")
        for block in _instant_blocks(rep.times.size, pairs.shape[0] + 1):
            fh.write(_instant_rows(rep.times[block],
                                   [rep.residuals[block, :, None]], pairs))
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
    try:
        sweep = convergence_sweep(flow, solver, taus)
    except NumericalAbort as exc:
        failed = exc.trajectory.config
        print(f"numerical abort in the sweep run at tau={failed.tau!r} "
              f"(eta={failed.eta!r}): {exc}", file=sys.stderr)
        return 3
    prefix = cfg["output"]
    csv_path = _out_path(prefix, "converge.csv")
    json_path = _out_path(prefix, "report.json")
    cells = _g17_cells(np.column_stack([sweep.taus, sweep.etas,
                                        sweep.medians]))
    with open(csv_path, "wb") as fh:
        fh.write(b"tau,eta,median_residual\n")
        fh.write(_rows_text(cells.reshape(-1, 12)))
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
    sub.add_argument("--preset", help="formula preset: "
                     + ", ".join(sorted(PRESETS)))
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
        return cmd_converge(cfg, solver, _parse_numbers(args.taus, "taus"))
    except (ConfigError, ValueError) as exc:   # SpanError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
