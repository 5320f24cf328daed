"""The benchmark's workloads: what ``eigentrack run`` is asked to do.

Each workload turns a seed into the arguments of one ``eigentrack run``
command (and, for a file flow, the flow file itself), and states the
restart instants a correct run must hit.  The program only ever sees the
generated inputs; the seed never reaches it except as the CLI's own
``--seed`` for the conjugated builtin flow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

TAU = 0.005

# restart-storm: a jump every 0.5 s over [0, 20] -- 39 jumps
_STORM_JUMPS = tuple(0.5 * i for i in range(1, 40))


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    jumps: Tuple[float, ...]          # instants where a restart must fire
    dense_n: Optional[int] = None     # file flow of this size, else builtin

    def expected_restarts(self, steps: int) -> List[float]:
        return [t for t in self.jumps if t < steps * TAU]

    def cli_args(self, workdir: str, seed: int,
                 steps: Optional[int] = None) -> List[str]:
        """Write this workload's inputs under ``workdir``; return CLI args.

        ``steps`` shortens the run (tests use this); the gated runs use
        the workload's own count.
        """
        steps = self.steps if steps is None else steps
        args = ["run", "--tau", repr(TAU), "--t0", "0",
                "--tf", repr(steps * TAU),
                "--output", os.path.join(workdir, "out") + os.sep]
        if self.dense_n is None:
            return args + ["--seed", str(seed),
                           "--jumps", ",".join(repr(t) for t in self.jumps)]
        from eigentrack import write_flow_file
        path = os.path.join(workdir, f"flow-n{self.dense_n}.txt")
        write_flow_file(path, rotating_flow(self.dense_n, seed), t0=0.0,
                        tau=TAU, count=steps + 1)
        return args + ["--flow", path]


# Why each workload exists is in BENCHMARK.json and README.md.  Every
# repetition has at least 400 steps and a run pools at least three, so
# the pooled p99 step latency has at least twelve samples beyond it.
WORKLOADS = {w.name: w for w in (
    Workload("paper-jumps", steps=4000, jumps=(8.0, 14.5)),
    Workload("dense-n32", steps=400, jumps=(), dense_n=32),
    Workload("restart-storm", steps=4000, jumps=_STORM_JUMPS),
)}


def rotating_flow(n: int, seed: int):
    """A(t) = U^T R(t)^T diag(d(t)) R(t) U, a dense smooth symmetric flow.

    U is a seeded random orthogonal matrix; R(t) = exp(tS) rotates the
    eigenbasis with a fixed skew-symmetric S; d(t) are fixed eigenvalue
    curves one unit apart with amplitudes below 0.35, so no two ever
    cross and no solve needs the least-squares fallback.  The seed only
    picks the basis U, which leaves every residual statistic the same up
    to rounding -- the accuracy metrics barely depend on the seed, while
    the samples the program reads all differ.
    """
    import numpy as np
    from eigentrack import MatrixFlow, OrthogonalRandomizer, conjugate
    i = np.arange(n)
    base = i - 0.5 * (n - 1)
    amp = 0.25 + 0.1 * np.sin(i)
    omega = 1.0 + 0.5 * np.cos(1.7 * i)
    phase = 0.37 * i
    G = np.random.default_rng(12345).standard_normal((n, n))
    # exp(tS) through the eigendecomposition of the Hermitian matrix iS
    theta, W = np.linalg.eigh(1j * 0.03 * (G - G.T))

    def sampler(t: float) -> np.ndarray:
        R = ((W * np.exp(-1j * theta * t)) @ W.conj().T).real
        return R.T @ np.diag(base + amp * np.sin(omega * t + phase)) @ R

    rand = OrthogonalRandomizer.from_seed(n, seed)
    return conjugate(MatrixFlow(n, sampler, label=f"rotating-n{n}"), rand)
