"""Brute force against the analytic criterion.

The direction-dependent metric tensor g_ij (half the direction Hessian of
F^2) must be positive definite exactly where the pointwise criterion
|grad f|^2 < 1/3 says so.  fundamental_tensor gives g_ij in Chern & Shen's
closed form.  The oracle decides it independently, from F values alone:
g_ij is positive definite exactly where the indicatrix has positive
curvature, f + f'' > 0 for f(theta) = F(cos(theta) e1 + sin(theta) e2) in
an orthonormal frame of a_ij, so it takes second differences of F around a
fan of 64 angles, the first steepest uphill; verify_equivalence then
tallies agreement across every route on random samples.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np

from slopemetric import (
    SamplePlan,
    SurfaceOfRevolution,
    fundamental_tensor,
    paraboloid,
    pd_oracle,
    verify_equivalence,
)

surf = SurfaceOfRevolution(paraboloid(100.0))
boundary = 1.0 / math.sqrt(12.0)

print("=== fundamental tensor across the convexity boundary ===")
for s in (0.15, 0.25, boundary + 1e-3, 0.35):
    g = fundamental_tensor(surf, s, 0.0, np.array([-1.0, 0.0]))  # uphill direction
    lo, hi = g.eigenvalues()
    side = "inside " if s < boundary else "outside"
    print(f"s = {s:.6f} ({side}): eigenvalues of g = ({lo:+.5f}, {hi:+.5f})")

print("\n=== oracle vs criterion near the boundary ===")
for ds in (-5e-3, -1e-3, 1e-3, 5e-3):
    s = boundary + ds
    verdict = pd_oracle(surf, s, 0.0)
    print(f"s = boundary {ds:+8.0e}:  positive definite in every direction? {verdict}")

print("\n=== random-sample agreement of all four routes ===")
plan = SamplePlan(n_points=300, seed=42, band=1e-3, s_range=(0.0, 1.0))
rep = verify_equivalence(surf, plan)
print(f"samples: {rep.samples}   agreements: {rep.agreements}   "
      f"disagreements: {len(rep.disagreements)}   worst margin to 1/3: {rep.worst_margin:.2e}")

print("\n=== a deliberately wrong threshold is caught ===")
# the patched bound reaches the analytic and profile routes only
with mock.patch("slopemetric.convexity.convexity_threshold", return_value=0.5):
    rep_bad = verify_equivalence(
        SurfaceOfRevolution(replace(paraboloid(100.0), domain=(0.0, 1.0))),
        SamplePlan(n_points=300, seed=42),
    )
print(f"with threshold corrupted to 0.5: {len(rep_bad.disagreements)} disagreements "
      f"(the Hessian oracle refuses to follow)")
