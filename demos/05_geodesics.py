"""Time-minimizing paths on a hillside.

Geodesics of the slope metric bend toward the fast (downhill) side, conserve
F along the flow, and are not reversible: retracing a path backwards takes a
different route and a different time.  Integration halts at the
strong-convexity boundary, where extremals stop being minimizers.
"""

import numpy as np

from slopemetric import (
    SurfaceOfRevolution,
    conservation_drift,
    flat_surface,
    geodesic_shoot,
    indicatrix,
    paraboloid,
)

surf = SurfaceOfRevolution(paraboloid(100.0))

print("=== flat ground sanity: straight lines ===")
flat = flat_surface()
path = geodesic_shoot(flat, (0.0, 0.0), (1.0, 1.0), length=1.0, step=1e-2)
dev = np.max(np.abs(path.points - np.outer(path.t, [1, 1]) / np.sqrt(2)))
print(f"max deviation from the straight line: {dev:.2e}")

print("\n=== on the hill: conservation and bending ===")
path = geodesic_shoot(surf, (0.1, 0.0), (0.0, 1.0), length=0.2, step=1e-3)
print(f"status: {path.status},  nodes: {len(path.t)}")
print(f"F along the path: min {path.F_values.min():.9f}, max {path.F_values.max():.9f}")
print(f"drift per unit length: {conservation_drift(path):.2e}")
start_r = np.hypot(*path.points[0])
end_r = np.hypot(*path.points[-1])
print(f"radius drifts outward (downhill pull): {start_r:.4f} -> {end_r:.4f}")

print("\n=== irreversibility ===")
back = geodesic_shoot(surf, path.points[-1], -path.velocities[-1], length=0.2, step=1e-3)
gap = np.linalg.norm(back.points[-1] - path.points[0])
print(f"shoot back from the endpoint with the reversed velocity: "
      f"misses the start by {gap:.6f} chart units")

print("\n=== a path that reaches the boundary is truncated ===")
out = geodesic_shoot(surf, (0.25, 0.0), (1.0, 0.0), length=0.5, step=1e-3)
print(f"status: {out.status}, stopped at t = {out.t[-1]:.3f}, "
      f"radius {np.hypot(*out.points[-1]):.6f} (boundary at {1 / np.sqrt(12):.6f})")

print("\n=== the unit ball is a limacon ===")
ind = indicatrix(surf, 0.1, 0.0, n=256)
print(f"r(theta) = c0 + c1 cos(theta) in the steepest-descent frame, c0 = v, c1 = w*b:")
print(f"c0 = {ind.fit.c0:.9f}  c1 = {ind.fit.c1:.9f}  samples' max residual = {ind.fit.max_residual:.1e}")
print(f"convex: {ind.convex} (the criterion q < threshold holds at this point)")
