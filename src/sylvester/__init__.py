"""Moments of volumes of random simplices in convex bodies.

Exact closed forms in certified pi-polynomial arithmetic (interval; ball,
free or with its center as a vertex; half-ball with its base center as a
vertex; triangle, free or with an edge midpoint as a vertex; tetrahedron, free,
at k = 1; and every one of these bodies and vertices at k = 2, from its
centroid and covariance), plus reproducible Monte Carlo estimation strong
enough to certify strict inequalities between moments, in particular the
failures of monotonicity under set inclusion.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Simplices per Monte Carlo chunk unless a config says otherwise.  Defined
#: here, not in the numpy-backed :mod:`.montecarlo`, so that the CLI can build
#: its ``--chunk`` default without loading numpy.
DEFAULT_CHUNK = 2**15

# Every public name, by the submodule that defines it.  A submodule is imported
# on the first use of one of its names, or of its own name (PEP 562), so
# ``import sylvester`` imports none, and only a sampling user loads numpy.
_EXPORTS = {
    "exactnum": (
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
    ),
    "moments": (
        "Covariance",
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
        "q_ratios",
        "scale_to_volume",
        "second_moment",
        "table1_rows",
        "tetrahedron_moment_k1",
        "midpoint_moment_from_cutoff_integrals",
        "triangle_midpoint_moment",
        "triangle_moment",
        "tx_over_t_ratio",
    ),
    "montecarlo": (
        "Ball",
        "BettingTest",
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
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
