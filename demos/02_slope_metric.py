"""The travel-time norm on a hillside.

At a sloped point the metric F = alpha^2/(alpha - beta) prices uphill
motion above downhill motion.  The same norm arrives by two independent
routes: the closed-form quotient and the implicit indicatrix equation
h(tv / F) = 0 solved for F.
"""

import numpy as np

from slopemetric import (
    NavigationParams,
    SurfaceOfRevolution,
    alpha,
    beta,
    induced_metric,
    limacon_h,
    okubo_solve,
    paraboloid,
    slope_metric_F,
)

surf = SurfaceOfRevolution(paraboloid(100.0))
x, y = 0.1, 0.0  # on the east slope of the hill; downhill is +x

a = induced_metric(surf, x, y)
print(f"induced metric at ({x}, {y}):  a11={a.m11:.4f}  a12={a.m12:.4f}  a22={a.m22:.4f}")

print("\ndirection        alpha      beta        F        1/F (speed)")
for label, d in [("downhill  +x", (1.0, 0.0)), ("uphill    -x", (-1.0, 0.0)),
                 ("sideways  +y", (0.0, 1.0)), ("diagonal", (1.0, 1.0))]:
    al = alpha(surf, x, y, d)
    b = beta(surf, x, y, d)
    F = slope_metric_F(surf, x, y, d)
    print(f"{label:14s}  {al:8.5f}  {b:+8.5f}  {F:8.5f}  {1 / F:8.5f}")

print("\ndownhill is cheaper than uphill: time asymmetry "
      f"{slope_metric_F(surf, x, y, (-1, 0)) / slope_metric_F(surf, x, y, (1, 0)):.4f}x")

print("\n=== Okubo route: solve h(tv / F) = 0 instead of using the quotient ===")
for d in [(1.0, 0.0), (-1.0, 0.0), (0.3, -0.7)]:
    Fc = slope_metric_F(surf, x, y, d)
    Fo = okubo_solve(surf, x, y, np.asarray(d))
    print(f"dir {d}:  closed form {Fc:.12f}   root solve {Fo:.12f}   rel diff {abs(Fo - Fc) / Fc:.1e}")

F = slope_metric_F(surf, x, y, (1.0, 0.0))
print(f"\nindicatrix membership: h(tv / F) = {limacon_h(surf, x, y, np.array([1.0, 0.0]) / F):+.1e}")

print("\n=== physical parameters: speed v, slope coefficient w = g/2 ===")
nav = NavigationParams(v=1.4, w=0.8)
print(f"v=1.4, w=0.8:  F(downhill) = {slope_metric_F(surf, x, y, (1, 0), nav):.6f}  "
      f"F(uphill) = {slope_metric_F(surf, x, y, (-1, 0), nav):.6f}")
