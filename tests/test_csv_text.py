"""The CSV files' "%.17g" text.

``cli._g17_cells`` formats whole blocks of floats with numpy.  These
tests hold it to Python's own ``"%.17g" % x`` byte for byte, and hold the
writers to the per-row ``%`` writer they replaced, which is kept here as
the reference.
"""

import json
from decimal import Decimal

import numpy as np
import pytest

from eigentrack import cli, znn
from eigentrack.flows import (builtin_flows, constant_flow, diag_linear_flow,
                              flow_from_file, write_flow_file)
from eigentrack.harness import build_report, naive_baseline

_CHUNK = 1 << 16


def kernel_text(values) -> bytes:
    """The kernel's text of ``values``, one value per line."""
    return cli._rows_text(cli._g17_cells(values))


def python_text(values) -> bytes:
    return "".join("%.17g\n" % x for x in values.tolist()).encode()


def _neighbours(x: float, ulps: int) -> list:
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def _ties(rng) -> np.ndarray:
    """Doubles a + f/2^j whose exact decimal expansion has 18 significant
    digits, the last a 5: "%.17g" rounds them half to even."""
    out = []
    for j in range(2, 18):
        lo, hi = 10 ** (17 - j), min(2 ** (53 - j), 10 ** (18 - j))
        a = rng.integers(lo, hi, 200)
        f = 2 * rng.integers(0, 2 ** (j - 1), 200) + 1
        out.append(a + f / 2.0 ** j)
    ties = np.concatenate(out)
    assert all(len(Decimal(x).as_tuple().digits) == 18
               and Decimal(x).as_tuple().digits[-1] == 5
               for x in ties.tolist())
    return ties


def _oracle_values() -> np.ndarray:
    rng = np.random.default_rng(20191)
    n = 330_000
    parts = [
        # normals over 10^-120 .. 10^120
        rng.standard_normal(n) * 10.0 ** rng.integers(-120, 121, n),
        # every 64-bit pattern is as likely: NaNs, infinities, subnormals
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
        # short decimals: "%.17g" strips their trailing zeros
        rng.integers(1, 10 ** 6, 200_000) / 10.0 ** rng.integers(-8, 12,
                                                                  200_000),
        # trajectory-like magnitudes
        rng.uniform(-1, 1, 150_000) * 10.0 ** rng.integers(-12, 3, 150_000),
        _ties(rng),
        # subnormals
        rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64),
    ]
    # every power of ten with both neighbours; %g's switch points and the
    # kernel's own range bounds with runs of neighbours
    parts.append([y for k in range(-300, 301)
                  for y in _neighbours(float(f"1e{k}"), 1)])
    parts.append([y for x in (1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280,
                              cli._G17_MIN, cli._G17_MAX)
                  for y in _neighbours(x, 40)])
    parts.append([
        0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, np.inf, np.nan,
        1e-28,                       # 9.9999999999999997e-29
        0.00012, 0.0001, 0.0123, 0.5, 0.25, 0.001,   # "0.000" forms
        1.0, 10.0, 1234567890123456.75, 99999999999999999.0, 0.1, 0.3])
    values = np.concatenate([np.asarray(p, dtype=np.float64).ravel()
                             for p in parts])
    return np.concatenate([values, -values])


def test_kernel_equals_python_percent_on_a_million_values():
    values = _oracle_values()
    assert values.size >= 1_000_000
    with np.errstate(all="raise"):
        for k in range(0, values.size, _CHUNK):
            chunk = values[k:k + _CHUNK]
            got, want = kernel_text(chunk), python_text(chunk)
            if got != want:
                bad = [(x, g, w) for x, g, w in zip(
                    chunk.tolist(), got.split(b"\n"), want.split(b"\n"))
                    if g != w]
                pytest.fail(f"{len(bad)} values differ, e.g. {bad[:5]}")


@pytest.mark.parametrize("x, text", [
    (1e-28, "9.9999999999999997e-29"),
    (0.00012, "0.00012"),
    (-0.00012, "-0.00012"),
    (0.0001, "0.0001"),
    (1e-5, "1.0000000000000001e-05"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (1234567890123456.75, "1234567890123456.8"),     # a tie, half to even
    (-0.0, "-0"),
    (np.nan, "nan"),
    (-np.inf, "-inf"),
    (5e-324, "4.9406564584124654e-324"),
])
def test_kernel_text_of_edge_values(x, text):
    assert kernel_text(np.array([x])) == (text + "\n").encode()


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_exponent_estimate_falls_back(shift, monkeypatch):
    # log10 may round either way next to a power of ten; a significand
    # scaled by the wrong power must go to Python's %, never be printed
    # (next to a power of ten the shifted estimate can be the right one)
    values = _oracle_values()[::50]
    real_exponent, real_fallback = cli._decimal_exponent, cli._g17_fallback
    fallback = []

    def off_by_one(ax):
        E = real_exponent(ax)
        E[::3] += shift
        return E

    def spy(cells, values, where):
        fallback.extend(where.tolist())
        real_fallback(cells, values, where)
    monkeypatch.setattr(cli, "_decimal_exponent", off_by_one)
    monkeypatch.setattr(cli, "_g17_fallback", spy)
    assert kernel_text(values) == python_text(values)
    assert len(fallback) > values.size // 4


def test_kernel_raises_no_floating_point_error():
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, 1e-280, 1e280,
                       1.7976931348623157e308, -np.inf, np.inf, np.nan, 1.0])
    with np.errstate(all="raise"):
        cli._g17_cells(values)


# --------------------------------------------------------------------------
# the writers against the per-row writer they replaced


def reference_trajectory_csv(path, traj) -> None:
    """The per-row ``%`` writer of trajectory.csv, kept as the reference."""
    n = traj.n
    header = ("t,pair,lambda,"
              + ",".join(f"x_{i}" for i in range(1, n + 1))
              + ",residual,solve_method,event")
    row = "%.17g,%d," + "%.17g," * (n + 2) + "%s,%s\n"
    route = traj.lstsq.astype(np.uint8)
    route[[kind != "predicted" for kind in traj.kind]] = 2
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for k in range(traj.times.size):
            t, kind, codes = traj.times[k], traj.kind[k], route[k].tolist()
            res = traj.residuals[k].tolist()
            for i, z in enumerate(traj.z[k].tolist()):
                fh.write(row % (t, i + 1, z[n], *z[:n], res[i],
                                cli._SOLVE_LABELS[codes[i]], kind))


# each run maker returns (flow, trajectory)

def _least_squares_run(request, tmp_path):
    # test_cli's trajectory_csv_labels_follow_kind_and_fallback_mask run
    flow = constant_flow(np.diag([1.0, 1.0, 3.0]))
    return flow, znn.run(flow, znn.SolverConfig(tau=0.01, eta=1.0, tf=0.1))


def _paper_run(request, tmp_path):
    traj = request.getfixturevalue("paper_run")[0]
    assert traj.times.size == 4001 and len(traj.restarts()) == 2
    return request.getfixturevalue("jump_flow"), traj


def _file_flow_n32(request, tmp_path):
    path = tmp_path / "n32.flow"
    flow = request.getfixturevalue("separated_flow")(32, 3)
    write_flow_file(path, flow, t0=0.0, tau=0.005, count=101)
    flow = flow_from_file(str(path))
    return flow, znn.run(flow, znn.SolverConfig(tau=0.005, eta=4.5, tf=0.5))


def _mid_run_abort(request, tmp_path):
    cfg = znn.SolverConfig(tau=0.005, eta=2000.0, tf=2.0)
    flow = builtin_flows()["A_s"]
    with pytest.raises(znn.NumericalAbort) as info:
        znn.run(flow, cfg)
    assert 0 < info.value.trajectory.times.size < 401
    return flow, info.value.trajectory


def _first_startup_abort(request, tmp_path):
    def failing_eigensolver(As):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    request.getfixturevalue("monkeypatch").setattr(
        znn, "sym_eig_batch", failing_eigensolver)
    flow = constant_flow(np.eye(3))
    with pytest.raises(znn.NumericalAbort) as info:
        znn.run(flow, znn.SolverConfig(tau=0.01, eta=1.0, tf=0.1))
    assert info.value.trajectory.times.size == 0
    return flow, info.value.trajectory


_RUNS = pytest.mark.parametrize("make", [
    _paper_run, _least_squares_run, _file_flow_n32, _mid_run_abort,
    _first_startup_abort])


@_RUNS
def test_trajectory_csv_equals_the_per_row_writer(make, request, tmp_path):
    _, traj = make(request, tmp_path)
    cli._write_trajectory_csv(str(tmp_path / "got.csv"), traj)
    reference_trajectory_csv(str(tmp_path / "want.csv"), traj)
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


@_RUNS
def test_kind_codes_are_the_one_record_of_each_instant(make, request,
                                                       tmp_path):
    # the names, the restart list and the report all read the codes
    flow, traj = make(request, tmp_path)
    assert traj.kind_code.dtype == np.uint8
    assert traj.kind_code.shape == traj.times.shape
    assert traj.kind == [znn.KINDS[c] for c in traj.kind_code]
    assert traj.restarts() == build_report(flow, traj).restarts


def test_paper_run_formats_every_cell_in_the_kernel(paper_run, tmp_path,
                                                    monkeypatch):
    # a fall back to Python's % per value would keep the bytes and lose
    # the speed; on the default run no value needs it
    fallback = []
    real = cli._g17_fallback

    def spy(cells, values, where):
        fallback.extend(values[where].tolist())
        real(cells, values, where)
    monkeypatch.setattr(cli, "_g17_fallback", spy)
    with np.errstate(all="raise"):
        cli._write_trajectory_csv(str(tmp_path / "t.csv"), paper_run[0])
    assert fallback == []


def test_baseline_csv_equals_per_row_text(tmp_path):
    argv = ["--flow", "diag-linear", "--tau", "0.01", "--tf", "1.0"]
    assert cli.main(["baseline", *argv, "--output", f"{tmp_path}/"]) == 0
    rep = naive_baseline(diag_linear_flow(), tau=0.01, t0=0.0, tf=1.0)
    want = "t,pair,residual\n" + "".join(
        "%.17g,%d,%.17g\n" % (t, i + 1, r)
        for t, row in zip(rep.times.tolist(), rep.residuals.tolist())
        for i, r in enumerate(row))
    assert (tmp_path / "baseline.csv").read_text() == want


def test_converge_csv_equals_per_row_text(tmp_path):
    argv = ["--flow", "paper-raw", "--tau", "0.01", "--tf", "1.0",
            "--taus", "0.01,0.005,0.0025"]
    assert cli.main(["converge", *argv, "--output", f"{tmp_path}/"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    want = "tau,eta,median_residual\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(report["taus"], report["etas"], report["medians"]))
    assert (tmp_path / "converge.csv").read_text() == want
