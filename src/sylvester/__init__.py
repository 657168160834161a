"""Moments of volumes of random simplices in convex bodies.

Exact closed forms (interval, ball, half-ball, triangle, with or without a
fixed vertex) in certified pi-polynomial arithmetic, plus reproducible Monte
Carlo estimation strong enough to certify strict inequalities between moments,
in particular the failures of monotonicity under set inclusion.
"""

__version__ = "0.1.0"

#: Simplices per Monte Carlo chunk unless a config says otherwise.  Defined
#: here, not in the numpy-backed :mod:`.montecarlo`, so that the CLI can build
#: its ``--chunk`` default without loading numpy.
DEFAULT_CHUNK = 2**15

from .exactnum import (
    PI,
    SQRT_PI,
    PiPolynomial,
    PrecisionError,
    Rational,
    gamma_half,
    kappa,
    omega,
    pi_power,
    to_decimal,
)
from .moments import (
    MomentQuery,
    PlaneCounterexampleReport,
    Table1Row,
    UnsupportedQueryError,
    ball_fixed_moment,
    ball_moment,
    exact_moment,
    exact_ratio_bound,
    halfball_fixed_moment,
    cutoff_integral_right_angle,
    cutoff_integral_acute,
    interval_moment,
    plane_counterexample_report,
    q_ratio,
    scale_to_volume,
    table1_rows,
    tetrahedron_moment_k1,
    midpoint_moment_from_cutoff_integrals,
    triangle_midpoint_moment,
    triangle_moment,
    tx_over_t_ratio,
)

# The Monte Carlo names come from ``.montecarlo``, which loads numpy; the exact
# path never needs it, so they are imported on first use (PEP 562).
_MONTECARLO_NAMES = (
    "Ball",
    "Body",
    "CounterexampleVerdict",
    "EstimatedSide",
    "EstimatorConfig",
    "ExactSide",
    "FixedPoint",
    "FixedPointSpec",
    "HalfBall",
    "Interval",
    "MomentEstimate",
    "NO_FIXED_POINT",
    "NoFixedPoint",
    "Simplex",
    "certify_counterexample",
    "estimate_moment",
    "make_config",
    "simplex_volume",
    "tetrahedron_facet_centroid",
    "triangle_edge_midpoint",
    "unit_area_triangle",
    "unit_volume_tetrahedron",
)


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MONTECARLO_NAMES})


__all__ = [
    "PI",
    "SQRT_PI",
    "PiPolynomial",
    "PrecisionError",
    "Rational",
    "gamma_half",
    "kappa",
    "omega",
    "pi_power",
    "to_decimal",
    "MomentQuery",
    "PlaneCounterexampleReport",
    "Table1Row",
    "UnsupportedQueryError",
    "ball_fixed_moment",
    "ball_moment",
    "exact_moment",
    "exact_ratio_bound",
    "halfball_fixed_moment",
    "cutoff_integral_right_angle",
    "cutoff_integral_acute",
    "interval_moment",
    "plane_counterexample_report",
    "q_ratio",
    "scale_to_volume",
    "table1_rows",
    "tetrahedron_moment_k1",
    "midpoint_moment_from_cutoff_integrals",
    "triangle_midpoint_moment",
    "triangle_moment",
    "tx_over_t_ratio",
    *_MONTECARLO_NAMES,
]
