"""Why bother predicting?  The solver vs the obvious baseline.

The cheapest "predictor" is to decompose A(t_k) and present that as the
answer for t_{k+1}.  Its error is whatever the flow moves in one gap --
O(tau) -- no matter how good the decomposition is.  The tracker pays
roughly the same linear algebra per step (one bordered solve per pair
instead of a full decomposition) but carries O(tau^4) error instead.
"""

import numpy as np

import eigentrack as et

rand = et.OrthogonalRandomizer.from_seed(7, 7)
pool = et.builtin_flows()
flow = et.with_jumps(et.conjugate(pool["A_s"], rand),
                     et.conjugate(pool["A_sj"], rand),
                     et.JumpSchedule((8.0, 14.5)))

tau = 0.001

# hold-the-last-decomposition
bl = et.naive_baseline(flow, tau=tau)

# the tracker, same gap (gain scaled so eta*tau stays in its sweet spot)
cfg = et.SolverConfig(preset="ifd5", tau=tau, eta=80.0, tf=20.0)
traj = et.run(flow, cfg)
report = et.build_report(flow, traj)

print("same flow, same sampling gap tau=%g:" % tau)
print("  static baseline   median residual %.3e" %
      bl.summary["median_residual"])
print("  one-step tracker  median residual %.3e" %
      report.summary["median_residual"])
ratio = bl.summary["median_residual"] / report.summary["median_residual"]
print("  advantage: %.0fx" % ratio)

# the gap scales differently: baseline ~ tau, tracker ~ tau^4
print("\nhow each side scales (smooth flow, shorter span):")
smooth = et.conjugate(pool["A_s"], rand)
print("    tau       baseline      tracker")
for t_i in (0.01, 0.005, 0.0025):
    b = et.naive_baseline(smooth, tau=t_i, tf=10.0)
    c = et.SolverConfig(preset="ifd5", tau=t_i, eta=0.08 / t_i, tf=10.0)
    r = et.build_report(smooth, et.run(smooth, c))
    print("    %-7g  %.3e     %.3e"
          % (t_i, b.summary["median_residual"],
             r.summary["median_residual"]))
