#!/usr/bin/env python3
"""Reproducible Monte Carlo estimation of simplex-volume moments.

Sampling is exact in distribution in every body.  Balls in d = 3, 4 and
every simplex are drawn from uniforms alone: sphere points from uniform
points of the disk (Marsaglia 1972), drawn by rejection from the square, and
the spacings of sorted uniforms as barycentric weights (Devroye 1986,
ch. V); other balls from normals.  Each
chunk draws from an SFC64 generator seeded by a Philox4x64 generator keyed
[seed, chunk], and results are a deterministic function of the estimator
config: rerunning with the same seed reproduces every digit, at any thread
count.
"""

import sylvester as sy
from sylvester.montecarlo import NO_FIXED_POINT

N = 500_000

print("Estimating E[V] for a random triangle in the unit disk")
cfg = sy.make_config(k=1, n_samples=N, seed=2024)
est = sy.estimate_moment(sy.Ball(2), NO_FIXED_POINT, cfg)
exact = sy.ball_moment(2, 1)
print(f"  estimate  : {est.mean:.6f} +- {est.std_error:.6f}")
print(f"  exact     : {exact} ~ {exact.to_decimal(6)}")
print(f"  |z|       : {abs(est.mean - exact.to_float()) / est.std_error:.2f}")

print()
print("Same machinery with a pinned vertex (disk center):")
est = sy.estimate_moment(sy.Ball(2), sy.FixedPoint((0.0, 0.0)), cfg)
exact = sy.ball_fixed_moment(2, 1)
print(f"  estimate  : {est.mean:.6f} +- {est.std_error:.6f}")
print(f"  exact     : {exact} ~ {exact.to_decimal(6)}")

print()
print("Higher moments in the unit-area triangle (k = 2):")
cfg2 = sy.make_config(k=2, n_samples=N, seed=7)
est = sy.estimate_moment(sy.unit_area_triangle(), NO_FIXED_POINT, cfg2)
print(f"  estimate  : {est.mean:.3e} +- {est.std_error:.1e}")
print(f"  exact 1/72 twice over: {sy.triangle_moment(2).to_decimal(6)}")

print()
print("Determinism: the same config gives bit-identical results at any")
print("worker count.")
a = sy.estimate_moment(sy.HalfBall(3), NO_FIXED_POINT, cfg, workers=1)
b = sy.estimate_moment(sy.HalfBall(3), NO_FIXED_POINT, cfg, workers=4)
print(f"  workers=1 : mean = {a.mean!r}")
print(f"  workers=4 : mean = {b.mean!r}")
print(f"  identical : {a.mean == b.mean and a.variance == b.variance}")

print()
print("Confidence intervals are normal-approximation CIs; the JSON record")
print("echoes the full config so any published number can be reproduced:")
print(" ", a.to_json_dict())
