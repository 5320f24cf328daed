"""Command-line surface: scenario selection, execution, file output.

Four subcommands: ``run`` (track a flow and write trajectory.csv +
report.json), ``formulas`` (print the formula catalog), ``baseline``
(decompose-and-hold comparison), ``converge`` (sampling-gap sweep).

Configuration comes from an optional JSON file (--config) overridden by
flags; every value has a default, and the defaults reproduce the
benchmark scenario (conjugated 7x7 flow, jumps at t=8 and t=14.5,
tau=0.005, eta=4.5, ifd5).  Exit codes: 0 clean, 2 configuration error,
3 numerical abort (``run`` still writes the partial trajectory;
``converge`` writes nothing and names the sampling gap that failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from .flows import (FlowFileError, JumpSchedule, MatrixFlow,
                    OrthogonalRandomizer, builtin_flows,
                    conjugate, constant_flow, diag_linear_flow,
                    flow_from_file, with_jumps)
from .formulas import BackwardFormula, catalog, check_zero_stability
from .harness import (build_report, convergence_sweep, naive_baseline,
                      timed_run)
from .znn import _PREDICTED, KINDS, NumericalAbort, SolverConfig

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


def _parse_taus(text: str) -> List[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse taus list {text!r}") from exc


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


# --------------------------------------------------------------------------
# CSV text: "%.17g" for whole blocks of floats
#
# Each float becomes a 32-byte cell, four little-endian uint64 words:
#   byte 0       sign ("-" or NUL)
#   bytes 1-5    "0." and up to three zeros, for -4 <= exponent < 0
#   bytes 8-25   the 17 significant digits, "." inserted at the point slot
#   bytes 26-30  "e+05" ... "e-308" in exponent form
#   byte 31      ","
# Every unused byte is NUL, and the text is the cells' bytes with the NULs
# dropped, so a row is a run of cells with no per-value Python work.

# |x| inside this range has a normal scaled significand and Dekker
# product; outside it (and 0, inf, NaN) the cell takes another path
_G17_MIN, _G17_MAX = 1e-280, 1e280
_E_LO = -281                    # least floor(log10|x|) inside the range
_X_OFF = 330                    # offset of the per-exponent tables
# |frac - 1/2| below this leaves the rounding of the 17th digit open; the
# computed significand is within 1e-14 of the exact one
_TIE_MARGIN = 1e-9
# values formatted per call: bounds the writer's temporary memory (about
# 120 bytes per value, 0.5 MB a block) and keeps the kernel's arrays in
# cache; half of it was 18% slower, twice it no faster
_BLOCK_VALUES = 4096


def _le_word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@lru_cache(maxsize=None)
def _g17_tables() -> SimpleNamespace:
    """Lookup tables of the "%.17g" kernel, built on first use:

    h, h_hi, h_lo, tail  10^(16-E) rounded, its high 26 bits (Dekker's
                         split), h - h_hi and 10^(16-E) - h, by E - _E_LO
    ascii4               4-digit group -> its ASCII bytes
    ends                 (4, 10000): end of group i's significant digits
                         in the 17-digit string, 0 for "0000"
    lead, exp            decimal exponent X -> word 0 (the "0.000"
                         prefix) and the bits of word 3 above the digits
                         ("e+XX" and ","), by X + _X_OFF
    point, whole         X -> the point slot (18: none, for the "0.000"
                         forms) and the digits kept before it
    keep, move, dot      (3, 19 * 19), by digit word and by point slot *
                         19 + cut: the bytes kept in place, the bytes
                         taken one slot on, and the "." itself

    Built with the kernel's own numpy loops or with Python objects: a
    loop only this build used would add its code pages to the resident
    set of every run.
    """
    h, tail = [], []
    for E in range(_E_LO, -_E_LO):
        k = 16 - E
        if k >= 0:       # correctly rounded int -> float conversions
            h.append(float(10 ** k))
            tail.append(float(10 ** k - int(h[-1])))
        else:            # correctly rounded int / int divisions
            d = 10 ** -k
            h.append(1 / d)
            a, b = h[-1].as_integer_ratio()
            tail.append((b - a * d) / (b * d))
    h = np.array(h)
    c = h * 134217729.0                  # 2^27 + 1
    h_hi = c - (c - h)
    q = np.arange(10000)
    ascii4 = np.zeros_like(q)
    zeros = np.zeros_like(q)             # trailing zeros of a group
    for unit in (1, 10, 100, 1000):
        ascii4 *= 256
        ascii4 += q // unit % 10 + 48
        zeros += q % (10 * unit) == 0
    ends = np.empty((4, 10000), np.uint8)
    for i in range(4):
        np.multiply(q != 0, 5 + 4 * i - zeros, out=ends[i], casting="unsafe")
    lead, exp, point, whole = [], [], [], []
    for x in range(-_X_OFF, _X_OFF + 1):
        fixed = -4 <= x < 17             # %g's choice at precision 17
        lead.append(_le_word(b"\0" + b"0.000"[:1 - x]) if x < 0 and fixed
                    else 0)
        exp.append(0x2C << 56 | (0 if fixed
                                 else _le_word(b"\0\0" + b"e%+03d" % x)))
        point.append(x + 1 if 0 <= x < 17 else 18 if fixed else 1)
        whole.append(0 if point[-1] == 18 else point[-1])
    keep, move, dot = [], [], []
    for w in range(3):
        below = [sum(0xFF << 8 * j for j in range(8) if 8 * w + j < slot)
                 for slot in range(19)]
        above = [below[slot + 1] ^ 0xFFFFFFFFFFFFFFFF for slot in range(18)]
        above.append(0)
        keep.append([below[P] & below[c] for P in range(19)
                     for c in range(19)])
        move.append([above[P] & below[c] for P in range(19)
                     for c in range(19)])
        dot.append([0x2E2E2E2E2E2E2E2E & ~(below[P] | above[P]) & below[c]
                    for P in range(19) for c in range(19)])
    tables = SimpleNamespace(
        h=h, h_hi=h_hi, h_lo=h - h_hi, tail=np.array(tail),
        ascii4=ascii4.astype(np.uint64), ends=ends,
        lead=np.array(lead, np.uint64), exp=np.array(exp, np.uint64),
        point=np.array(point), whole=np.array(whole),
        keep=np.array(keep, np.uint64), move=np.array(move, np.uint64),
        dot=np.array(dot, np.uint64))
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


_U8, _U24, _U40, _U56 = (np.uint64(s) for s in (8, 24, 40, 56))


def _decimal_exponent(ax) -> np.ndarray:
    """floor(log10(ax)) - _E_LO, for ax in [1e-280, 1e280]: an estimate,
    which can be one off next to a power of ten."""
    E = np.log10(ax)
    E -= _E_LO
    return E.astype(np.intp)             # a floor: E - _E_LO is positive


def _g17_cells(values) -> np.ndarray:
    """The text of ``"%.17g" % x`` for each x of ``values``, as 32-byte
    cells: a ``(values.size, 4)`` uint64 array, layout above.

    For |x| in [1e-280, 1e280] the kernel scales x by 10^(16-E), with E
    from log10, to a 17-digit significand ``p + e``: ``p`` rounded, ``e``
    its error from Dekker's exact product and the table's low part
    (Dekker, Numer. Math. 18, 1971).  Rounding that to an integer gives
    the digits unless ``p + e`` is within ``_TIE_MARGIN`` of a half
    (exact ties included) or does not round into [1e16, 1e17) (E off by
    one).  Those values, NaN, +-inf and |x| outside the range go through
    Python's own ``%``; zero is formatted here.
    """
    tb = _g17_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(v)
    sure = (ax >= _G17_MIN) & (ax <= _G17_MAX)
    zero = ax == 0.0
    ax[~sure] = 1.0                      # placeholder, overwritten below
    sure |= zero
    idx = _decimal_exponent(ax)
    # s = ax * 10^(16-E) = p + e, exact up to about 5e-15
    h = tb.h.take(idx)
    p = ax * h
    split = ax * 134217729.0
    a_hi = split - ax
    np.subtract(split, a_hi, out=a_hi)
    a_lo = np.subtract(ax, a_hi, out=split)
    h_hi = tb.h_hi.take(idx)
    h_lo = tb.h_lo.take(idx)
    e = a_hi * h_hi
    e -= p
    a_hi *= h_lo
    e += a_hi
    h_hi *= a_lo
    e += h_hi
    a_lo *= h_lo
    e += a_lo
    ax *= tb.tail.take(idx)
    e += ax
    del a_hi, a_lo, h_hi, split
    r = e + 0.5
    np.floor(r, out=r)
    off = np.subtract(e, r, out=h)
    np.abs(off, out=off)
    sure &= off < 0.5 - _TIE_MARGIN
    low = np.subtract(p, 1e16, out=h_lo)
    low += e
    sure &= low >= 0.0
    del e, off, low, h, h_lo, ax
    N = p.astype(np.int64)
    N += r.astype(np.int64)
    del p, r
    sure &= N < 10 ** 17
    N[zero] = 0
    X = idx
    X += _E_LO + _X_OFF
    del zero
    # the 17 digits: d0, then four 4-digit groups g0..g3
    hi = N // 100000000
    lo = N - hi * 100000000
    d0 = hi // 100000000
    hi -= d0 * 100000000
    g0 = hi // 10000
    g1 = hi - g0 * 10000
    g2 = lo // 10000
    g3 = lo - g2 * 10000
    del N, hi, lo
    ends = tb.ends
    last = np.maximum(ends[0].take(g0), ends[1].take(g1))
    np.maximum(last, ends[2].take(g2), out=last)
    np.maximum(last, ends[3].take(g3), out=last)
    np.maximum(last, 1, out=last)        # digits to keep: at least one
    a1 = tb.ascii4.take(g1)
    a3 = tb.ascii4.take(g3)
    s0 = d0.astype(np.uint64)
    s0 += 48
    s0 |= tb.ascii4.take(g0) << _U8
    s0 |= a1 << _U40
    a1 >>= _U24
    a1 |= tb.ascii4.take(g2) << _U8
    a1 |= a3 << _U40
    a3 >>= _U24
    digits = (s0, a1, a3)                # 17 ASCII digits in three words
    del g0, g1, g2, g3, d0
    # insert the point at slot P and drop digits from slot `cut` on
    P = tb.point.take(X)
    last = last.astype(np.intp)
    cut = last + (last > P)
    np.maximum(cut, tb.whole.take(X), out=cut)
    P *= 19
    cut += P                             # index of (P, cut) in the tables
    del last, P
    cells = np.empty((v.size, 4), np.uint64)
    prev = None
    for w, word in enumerate(digits):
        text = tb.keep[w].take(cut)
        text &= word
        shifted = word << _U8            # the digits one slot on
        if prev is not None:
            shifted |= prev >> _U56
        prev = word
        shifted &= tb.move[w].take(cut)
        text |= shifted
        text |= tb.dot[w].take(cut)
        if w == 2:                       # with the exponent and ","
            text |= tb.exp.take(X)
        cells[:, w + 1] = text
    del digits, s0, a1, a3, prev, word, text, shifted, cut
    w0 = tb.lead.take(X)
    w0 |= np.signbit(v) * np.uint64(45)  # "-"
    cells[:, 0] = w0
    _g17_fallback(cells, v, np.flatnonzero(~sure))
    return cells


def _g17_fallback(cells, values, where) -> None:
    """Python's own "%.17g" into the cells at indices ``where``."""
    for i in where.tolist():
        text = ("%.17g" % values[i]).encode()
        cells[i] = np.frombuffer(text.rjust(31, b"\0") + b",", np.uint64)


def _words(texts) -> np.ndarray:
    """Byte strings as rows of uint64 words, NUL-padded on the left."""
    width = -(-max(map(len, texts)) // 8) * 8
    return np.frombuffer(b"".join(t.rjust(width, b"\0") for t in texts),
                         np.uint64).reshape(len(texts), -1)


def _rows_text(rows: np.ndarray) -> bytes:
    """CSV text of rows of cells that each end in ",": the last comma of a
    row becomes its newline, and the NUL padding is dropped."""
    rows.view(np.uint8)[..., -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


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


def _instant_blocks(count: int, values_per_instant: int):
    step = max(1, _BLOCK_VALUES // values_per_instant)
    return (slice(k, k + step) for k in range(0, count, step))


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
    rep = naive_baseline(flow, tau=solver.tau, t0=solver.t0, tf=solver.tf,
                         metric=_METRICS[cfg["metric"]])
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
        return cmd_converge(cfg, solver, _parse_taus(args.taus))
    except (ConfigError, ValueError) as exc:   # SpanError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
