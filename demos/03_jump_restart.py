"""
Surviving discontinuities: detection and restart
================================================

A prediction scheme built on past samples is blind to a sudden change in
the data.  The solver therefore estimates ||dA/dt|| at every step from
the matrices alone; when the estimate explodes past a threshold it
throws away the prediction it was about to commit, re-seeds its history
with static decompositions, and keeps going.

The benchmark scenario switches the flow variant at t=8 and t=14.5.
"""

import numpy as np

import eigentrack as et

rand = et.OrthogonalRandomizer.from_seed(7, 7)
pool = et.builtin_flows()
flow = et.with_jumps(et.conjugate(pool["A_s"], rand),
                     et.conjugate(pool["A_sj"], rand),
                     et.JumpSchedule((8.0, 14.5)))

cfg = et.SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=20.0)
traj = et.run(flow, cfg)
report = et.build_report(flow, traj)

# --- the detector's view ----------------------------------------------------

print("drift-norm estimate around the first switch:")
for k in range(1596, 1606):
    t = traj.times[k]
    da = traj.da_norms[k]
    kind = et.KINDS[traj.kind_code[k]]
    note = "   <-- restart" if kind == "restart-triggered" else ""
    print("  t=%.3f  kind=%-17s  ||dA/dt|| ~ %s%s"
          % (t, kind, "   (warming up)" if np.isnan(da) else "%8.1f" % da,
             note))

print("\nall restarts:", [(t, round(spike, 1))
                          for t, spike in traj.restarts()])

# --- damage assessment -------------------------------------------------------
# each restart costs s*-1 startup instants plus a settling tail; the
# report excludes those windows from steady-state statistics

print("\nexcluded windows (reason, from, to):")
for reason, lo, hi in report.excluded_windows:
    print(f"  {reason:8s} {lo:6.3f} .. {hi:6.3f}")

print("\nper-segment steady medians:")
for seg in report.segments:
    print("  t in [%5.2f, %5.2f]  median %.2e   max %.2e"
          % (seg["t_start"], seg["t_end"],
             seg["median_residual"], seg["max_residual"]))
