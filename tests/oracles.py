"""Independent numerical oracles used to pin expected values in the tests.

Everything here deliberately avoids the closed forms under test: moments come
from adaptive quadrature of the defining integrals, geometric constants from
one-dimensional integrals of cross sections.  Oracle outputs are compared to
the exact implementations at tight tolerances.  The exception is
:func:`ball_moments_by_kappa_omega`, an exact oracle: the same Miles formula
as the ball closed forms, built factor by factor from kappa and omega rather
than telescoped, and compared structurally.
"""

from __future__ import annotations

from math import sqrt

from scipy.integrate import dblquad, quad


def interval_moment_quadrature(k: int, l: float) -> float:
    """E |X - Y|^k for X, Y uniform on [0, l], by 2D adaptive quadrature.

    Integrates over the triangle y < x (where the integrand is smooth) and
    doubles, which avoids the |x - y| kink on the diagonal.
    """
    val, _ = dblquad(lambda y, x: (x - y) ** k, 0.0, l, 0.0, lambda x: x,
                     epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val / l**2


def i0_quadrature(k: int) -> float:
    """(1/2^k) * int_0^1 int_0^1 (a + b - 2ab)^k * a*b da db."""
    val, _ = dblquad(lambda b, a: (a + b - 2 * a * b) ** k * a * b,
                     0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return val / 2**k


def i12_quadrature(k: int) -> float:
    """(1/2^k) * [int over a<1/2 of (b-2ab)^k ab + int over a>1/2 of (2ab-b)^k ab]."""
    low, _ = dblquad(lambda b, a: (b - 2 * a * b) ** k * a * b,
                     0.0, 0.5, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    high, _ = dblquad(lambda b, a: (2 * a * b - b) ** k * a * b,
                      0.5, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return (low + high) / 2**k


def halfball_first_coordinate_mean(d: int) -> float:
    """E[x_1] for a uniform point in the unit d-half-ball {x_1 >= 0}.

    Integrates the (d-1)-ball cross-section area against the height:
    E[x_1] = int_0^1 t (1-t^2)^((d-1)/2) dt / int_0^1 (1-t^2)^((d-1)/2) dt.
    """
    p = (d - 1) / 2.0
    num, _ = quad(lambda t: t * (1.0 - t * t) ** p, 0.0, 1.0, epsabs=1e-13)
    den, _ = quad(lambda t: (1.0 - t * t) ** p, 0.0, 1.0, epsabs=1e-13)
    return num / den


def uniform_interval_abs_moment(k: int) -> float:
    """E |X|^k for X uniform on [-1, 1]: int_0^1 x^k dx = 1/(k+1)."""
    val, _ = quad(lambda x: abs(x) ** k, -1.0, 1.0, epsabs=1e-13)
    return val / 2.0


def gamma_half_by_recurrence(two_n: int) -> tuple[int, int, int]:
    """Gamma(two_n/2) as (num, den, sqrt_pi_flag) from Gamma(x+1) = x Gamma(x).

    Starts from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) and climbs in integer
    steps, tracking the rational factor exactly.
    """
    from fractions import Fraction

    if two_n % 2 == 0:
        value = Fraction(1)
        x = Fraction(1)
        sqrt_pi = 0
    else:
        value = Fraction(1)
        x = Fraction(1, 2)
        sqrt_pi = 1
    while x < Fraction(two_n, 2):
        value *= x
        x += 1
    return value.numerator, value.denominator, sqrt_pi


def ball_moments_by_kappa_omega(d: int, k: int):
    """Miles' k-th volume moments in the unit d-ball, as products of kappas and omegas.

    Returns (free, fixed): with all vertices random,
    (kappa_{d+k} / kappa_d)^(d+1) * kappa_{d(d+k+1)} / kappa_{(d+1)(d+k)}
    / (d!)^k * prod_{j=1..k} omega_j / omega_{d+j}; with one vertex fixed at
    the center, (kappa_{d+k} / kappa_d)^d / (d!)^k times the same omega
    product.  Every step is an exact PiPolynomial operation, so the loop over
    j costs k multiplications and divisions.
    """
    from fractions import Fraction
    from math import factorial

    from sylvester.exactnum import PiPolynomial, kappa, omega

    ratio = PiPolynomial.one()
    for j in range(1, k + 1):
        ratio = ratio * omega(j) / omega(d + j)
    fixed = (kappa(d + k) / kappa(d)) ** d / Fraction(factorial(d)) ** k * ratio
    free = fixed * kappa(d + k) / kappa(d) * kappa(d * (d + k + 1)) / kappa((d + 1) * (d + k))
    return free, fixed


def triangle_second_coordinate_moments() -> tuple[float, float]:
    """(mean, variance) of a coordinate of a uniform point in the standard triangle."""
    mean = 1.0 / 3.0
    second, _ = dblquad(lambda y, x: x * x, 0.0, 1.0, 0.0, lambda x: 1.0 - x)
    var = second / 0.5 - mean * mean
    return mean, var
