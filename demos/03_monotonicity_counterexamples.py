#!/usr/bin/env python3
"""Certifying failures of monotonicity under set inclusion.

Monotonicity of K -> E[V_K^k] over all convex-body inclusions is equivalent to
E[V_K^k] <= E[V_{K,x}^k] holding for every body K and boundary point x (pin
one vertex at x).  A single pair with the strict opposite inequality is
therefore a counterexample.  Each certification below compares an exact closed
form with Monte Carlo samples by a one-sided test by betting, tested after
every chunk of samples: the verdict is only "certified" when the test's
log-wealth reaches log(2/alpha), and the run stops at the first chunk where it
does.  The printed interval is the confidence sequence that the same bets give
at that stop: the means that neither test rejects.  The decided end is the
exact value's own enclosure end, so a certified interval excludes the exact
value.

Each estimated side is given its exact E V^2 and E V^4, as the CLI's
`counterexample` does, and so samples the quartic control variate
V(1 + t(a + b t^2)), t = V/R, instead of V: the same draws in a range of
0.135 R instead of R.  R is the largest volume of a simplex the side can
reach: sqrt(3)/4 in the free 3-half-ball, 27/32 of the 3-ball's, and a third
of the tetrahedron's volume with a vertex at its facet centroid.
"""

import sylvester as sy
from sylvester.montecarlo import NO_FIXED_POINT

N = 2_000_000  # the sample budget per estimated side; a run stops once decided


def estimated(body, fixed, d, body_kind, fixed_kind="none"):
    """The side (body, fixed, k = 1) with its pair's exact E V^2 and E V^4."""
    return (body, fixed, 1, *(sy.exact_moment(sy.MomentQuery(d, k, body_kind, fixed_kind))
                              for k in (2, 4)))


scenarios = [
    ("3-half-ball, vertex at base center (k=1)",
     estimated(sy.HalfBall(3), NO_FIXED_POINT, 3, "halfball"),
     sy.halfball_fixed_moment(3, 1)),
    ("unit tetrahedron, vertex at a facet centroid (k=1)",
     sy.tetrahedron_moment_k1(),
     estimated(sy.unit_volume_tetrahedron(), sy.tetrahedron_facet_centroid(),
               3, "tetrahedron", "facet_centroid")),
    ("4-half-ball, vertex at base center (k=1): provable regime",
     estimated(sy.HalfBall(4), NO_FIXED_POINT, 4, "halfball"),
     sy.ball_fixed_moment(4, 1)),
]

for title, lhs, rhs in scenarios:
    cfg = sy.make_config(k=1, n_samples=N, seed=99)
    verdict = sy.certify_counterexample(lhs, rhs, cfg)
    print("=" * 72)
    print(title)
    for label, side in (("lhs", verdict.lhs), ("rhs", verdict.rhs)):
        if isinstance(side, sy.ExactSide):
            print(f"  {label} (exact)    : {side.value} ~ {side.value.to_decimal(8)}")
        else:
            e = side.estimate
            print(f"  {label} (estimate) : {e.mean:.8f}  "
                  f"99% betting confidence sequence [{e.ci_low:.8f}, {e.ci_high:.8f}]  "
                  f"n={e.n} (budget {N})")
            trace = side.trace_dict()
            print(f"  sample {trace['sample']} (a={trace['a']}, b={trace['b']}), "
                  f"range {trace['range']:.6f} = {trace['range'] / side.moment_range:.4f} R, "
                  f"R = {side.moment_range:.6f}")
            print(f"  log-wealth {max(side.test.log_wealth):.2f} "
                  f"against the threshold {side.test.threshold:.2f}")
    print(f"  verdict: {verdict.relation}  at confidence {verdict.confidence}")
    print()

print("In each case the free moment strictly exceeds the pinned moment, so the")
print("pinning inequality fails and monotonicity fails with it.")
print()
print("For k = 2 the triangle family collapses to exact equality -- no")
print("counterexample from it:")
cfg = sy.make_config(k=2, n_samples=1000)
verdict = sy.certify_counterexample(
    sy.triangle_moment(2), sy.triangle_midpoint_moment(2), cfg
)
print(f"  exact 1/72 vs exact 1/72 -> verdict: {verdict.relation}")
