"""
Measuring the convergence order
===============================

Theory says the per-step truncation error of the four-tap recursion is
O(tau^4), so halving the sampling gap should cut steady residuals by
about 16x.  The sweep below keeps the loop gain eta*tau fixed while
refining tau (otherwise the continuous-time decay rate would change
under us) and fits a straight line through log(residual) vs log(tau).

Runs four trackers per preset; takes a few seconds.
"""

import numpy as np

import eigentrack as et

rand = et.OrthogonalRandomizer.from_seed(7, 7)
flow = et.conjugate(et.builtin_flows()["A_s"], rand)

taus = [1 / 100, 1 / 200, 1 / 400, 1 / 800]

for preset, band in (("ifd5", "expect ~4"), ("ifd7", "expect ~5")):
    template = et.SolverConfig(preset=preset, tau=1 / 200, eta=4.5, tf=10.0)
    sweep = et.convergence_sweep(flow, template, taus)
    print(f"{preset} sweep (eta*tau fixed at "
          f"{template.eta * template.tau:.4f})")
    print("    tau        eta      median residual")
    for tau_i, eta_i, med in zip(sweep.taus, sweep.etas, sweep.medians):
        print("    1/%-6d %7.1f      %.3e" % (round(1 / tau_i), eta_i, med))
    gains = np.exp(np.diff(np.log(sweep.medians)))
    print("    per-halving shrink factors:",
          ", ".join("%.1fx" % (1 / g) for g in gains))
    print("    fitted slope %.2f   (%s)\n" % (sweep.slope, band))
