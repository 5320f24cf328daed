"""One repetition of the benchmark, in a fresh process.

Usage: worker.py --spawned T --result FILE [--setup-only] [--trace]
       -- <eigentrack CLI arguments>

Runs ``eigentrack run`` in-process through ``eigentrack.cli.main`` and
observes it from outside the package: it replaces a few module
attributes that ``cli`` and ``znn`` look up at call time, and the flow's
sampler.  Nothing in the package is edited.

* Always: the sampler stamps each delivery during ``timed_run`` (like a
  load generator handing out samples), ``timed_run`` stamps the moment
  the tracker is ready, and the finished outputs are checked.
* ``--trace``: spans around the calls into each module, kept in memory
  and summarised into per-layer metrics when the command returns.
* ``--setup-only``: exit as soon as the tracker is ready.

``T`` is the parent's CLOCK_MONOTONIC stamp taken just before it spawned
this process, so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from eigentrack import cli, znn  # set-up time covers this import

_perf = time.perf_counter


class SetupDone(BaseException):
    """Raised at tracker-ready time in --setup-only mode (not an error the
    CLI may catch)."""


class Spans:
    """In-memory span log: name, start, end and the enclosing span."""

    def __init__(self):
        self.names, self.parents, self.begins, self.ends = [], [], [], []
        self._open = [-1]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.ends.append(0.0)
            self._open.append(i)
            self.begins.append(_perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[i] = _perf()
                self._open.pop()
        return traced

    def summary(self):
        """Total duration, self time and call count per span name, and
        duration and call count per (name, enclosing span's name)."""
        dur = np.array(self.ends) - np.array(self.begins)
        parents = np.array(self.parents, dtype=int)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        total_in, calls_in = defaultdict(float), Counter()
        for i, name in enumerate(self.names):
            up = self.names[parents[i]] if parents[i] >= 0 else ""
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            total_in[name, up] += dur[i]
            calls_in[name, up] += 1
        return total, own, calls, total_in, calls_in


class Probe:
    """Everything the repetition observes about one ``eigentrack run``."""

    def __init__(self, trace: bool, setup_only: bool):
        self.setup_only = setup_only
        self.spans = Spans() if trace else None
        self.ready = None
        self.traj = self.elapsed = self.report = self.csv_path = None
        self.s_star = None
        self.in_run = False
        self.sample_t, self.sample_call, self.sample_ret = [], [], []
        self.systems = self.direct = self.eig_matrices = 0

    def _span(self, name, fn):
        return self.spans.wrap(name, fn) if self.spans else fn

    def install(self):
        resolve = self._span("cli._resolve_flow", cli._resolve_flow)
        cli.flow_from_file = self._span("flows.flow_from_file",
                                        cli.flow_from_file)

        def resolve_flow(cfg, *args, **kwargs):
            flow = resolve(cfg, *args, **kwargs)
            flow.sampler = self._span("flows.sample",
                                      self._stamped(flow.sampler))
            return flow
        cli._resolve_flow = resolve_flow

        timed = self._span("znn.run", cli.timed_run)

        def timed_run(flow, config):
            self.ready = time.monotonic()
            if self.setup_only:
                raise SetupDone
            self.s_star = config.s_star
            self.in_run = True
            try:
                self.traj, self.elapsed = timed(flow, config)
            finally:
                self.in_run = False
            return self.traj, self.elapsed
        cli.timed_run = timed_run

        build = self._span("harness.build_report", cli.build_report)

        def build_report(*args, **kwargs):
            self.report = build(*args, **kwargs)
            return self.report
        cli.build_report = build_report

        write_csv = self._span("cli._write_trajectory_csv",
                               cli._write_trajectory_csv)

        def write_trajectory_csv(path, traj):
            self.csv_path = path
            return write_csv(path, traj)
        cli._write_trajectory_csv = write_trajectory_csv

        if self.spans is None:
            return
        self._install_kernel_spans()

    def _install_kernel_spans(self):
        solve = self._span("densela.solve_batch", znn.solve_batch)

        def solve_batch(Ps, qs, *args, **kwargs):
            reports = solve(Ps, qs, *args, **kwargs)
            self.systems += len(reports)
            self.direct += sum(r.method == "direct" for r in reports)
            return reports
        znn.solve_batch = solve_batch

        eig = self._span("densela.sym_eig_batch", znn.sym_eig_batch)

        def sym_eig_batch(As, *args, **kwargs):
            self.eig_matrices += len(As)
            return eig(As, *args, **kwargs)
        znn.sym_eig_batch = sym_eig_batch

        # the predict loop calls the estimate twice per step (once to
        # test for a jump, once to predict); startup blocks call it too.
        # Calls are told apart by the calling frame.
        loop = self._span("formulas.derivative_estimate",
                          znn.derivative_estimate)
        start = self._span("formulas.derivative_estimate.startup",
                           znn.derivative_estimate)

        def derivative_estimate(*args, **kwargs):
            in_startup = sys._getframe(1).f_code.co_name == "do_startup"
            return (start if in_startup else loop)(*args, **kwargs)
        znn.derivative_estimate = derivative_estimate

        cli.main = self._span("cli.main", cli.main)

    def _stamped(self, sample):
        def sampler(t):
            if not self.in_run:
                return sample(t)
            called = _perf()
            M = sample(t)
            delivered = _perf()
            self.sample_t.append(t)
            self.sample_call.append(called)
            self.sample_ret.append(delivered)
            return M
        return sampler

    def latencies(self):
        """Per-step and per-start latencies in microseconds.

        A step's latency is the gap between deliveries of consecutive new
        instants.  A repeated instant is the restart's re-sample of the
        sample that triggered it; it is not a step.  A start (the first
        one at t0 and each restart) lasts from the delivery of the sample
        that opens it until the first prediction, which is when the
        tracker asks for the instant after the s* startup instants.
        """
        first = {}
        calls, rets, starts = [], [], [0]
        for t, c, r in zip(self.sample_t, self.sample_call, self.sample_ret):
            if t in first:
                starts.append(first[t])
                continue
            first[t] = len(rets)
            calls.append(c)
            rets.append(r)
        steps = (np.diff(rets) * 1e6).tolist()
        start_us = [(calls[i + self.s_star] - rets[i]) * 1e6
                    for i in starts if i + self.s_star < len(calls)]
        return steps, start_us

    def layers(self, steps: int, csv_bytes: int):
        """Per-layer metrics of a traced repetition."""
        total, own, calls, total_in, calls_in = self.spans.summary()
        n = self.traj.n
        iters = calls["densela.solve_batch"]
        derivative = (total["formulas.derivative_estimate"]
                      + total["formulas.derivative_estimate.startup"])
        kinds = list(self.traj.kind)
        module_self = defaultdict(float)
        for name, t in own.items():
            module = name.split(".")[0]
            # flow construction (builtin flows, randomizer, file parse)
            # is the flows module's work even though cli calls it
            module_self["flows" if name == "cli._resolve_flow"
                        else module] += t
        out = {
            "flows.sample_us":
                total_in["flows.sample", "znn.run"] / steps * 1e6,
            "flows.samples_per_step":
                calls_in["flows.sample", "znn.run"] / steps,
            "flows.load_s": total["cli._resolve_flow"],
            "formulas.derivative_us": derivative / steps * 1e6,
            "formulas.derivative_calls_per_step":
                calls["formulas.derivative_estimate"] / iters,
            "densela.solve_us": total["densela.solve_batch"] / steps * 1e6,
            "densela.systems_per_step": self.systems / iters,
            "densela.direct_ratio": self.direct / self.systems,
            "densela.solve_gflops_computed":
                self.systems * (2.0 / 3.0) * (n + 1) ** 3
                / total["densela.solve_batch"] / 1e9,
            "densela.eig_us": total["densela.sym_eig_batch"]
                / calls["densela.sym_eig_batch"] * 1e6,
            "densela.eig_matrices": self.eig_matrices,
            "znn.self_us": own["znn.run"] / steps * 1e6,
            "znn.restarts": kinds.count("restart-triggered"),
            "znn.startup_instants": len(kinds) - kinds.count("predicted"),
            "harness.report_s": total["harness.build_report"],
            "harness.report_samples":
                calls_in["flows.sample", "harness.build_report"],
            "cli.csv_s": total["cli._write_trajectory_csv"],
            "cli.csv_bytes": csv_bytes,
        }
        for module in ("flows", "formulas", "densela", "znn", "harness",
                       "cli"):
            out[f"{module}.self_s"] = module_self[module]
        return out


def check_outputs(probe: Probe) -> dict:
    """Facts about the written CSV that the parent turns into pass/fail."""
    with open(probe.csv_path, "rb") as fh:
        data = fh.read()
    rows = data.decode("utf-8").splitlines()[1:]
    tail = [row.rsplit(",", 3) for row in rows]
    logged = np.array([float(f[1]) for f in tail])
    recomputed = np.ascontiguousarray(probe.report.residuals).ravel()
    bit_equal = (logged.shape == recomputed.shape and np.array_equal(
        logged.view(np.uint64), recomputed.view(np.uint64)))
    return {
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "csv_bytes": len(data),
        "residuals_bit_equal": bool(bit_equal),
        "least_squares_solves": sum(f[2] == "least-squares" for f in tail),
    }


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    spawned = float(own[own.index("--spawned") + 1])
    result_path = own[own.index("--result") + 1]
    probe = Probe(trace="--trace" in own, setup_only="--setup-only" in own)
    probe.install()
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    done = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"code": code, "setup_s": probe.ready - spawned}
    if not probe.setup_only and code == 0:
        steps = probe.traj.times.size - 1
        step_us, start_us = probe.latencies()
        result.update(cli_s=done - spawned, peak_rss_mb=rss_kb / 1024.0,
                      steps=steps, tau=probe.traj.config.tau,
                      us_per_step=probe.elapsed / steps * 1e6,
                      step_us=step_us, start_us=start_us,
                      **check_outputs(probe))
        if probe.spans is not None:
            result["layers"] = probe.layers(steps, result["csv_bytes"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
