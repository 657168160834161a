"""Independent numerical oracles used to pin expected values in the tests.

Everything here deliberately avoids the closed forms under test: moments come
from adaptive quadrature of the defining integrals, geometric constants from
one-dimensional integrals of cross sections.  Oracle outputs are compared to
the exact implementations at tight tolerances.  The exceptions are exact
oracles, compared structurally: :func:`ball_moments_by_kappa_omega`, the same
Miles formula as the ball closed forms, built factor by factor from kappa and
omega rather than telescoped, :func:`ratio_bound_by_kappas`, the ball
ratio bound as four kappas rather than a quotient of ball moments,
:func:`second_moment_by_bordered_det`, E V^2 from a body's centroid and
covariance through a general determinant rather than each body's closed
det Sigma, and :func:`volume_moment_by_permutations`, E V^4 (or E V^2) by
expanding E det^4 over permutations, row by row, from each body's monomial
moments alone.
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


def ratio_bound_by_kappas(d: int, k: int):
    """The half-ball ratio bound in its four-kappa form.

    2^k (kappa_d / kappa_{d+k}) (kappa_{(d+1)(d+k)} / kappa_{d(d+k+1)}), built
    from kappa directly rather than as a quotient of the ball moments.
    """
    from fractions import Fraction

    from sylvester.exactnum import PiPolynomial, kappa

    value = PiPolynomial.from_rational(Fraction(2) ** k) * kappa(d) / kappa(d + k)
    return value * kappa((d + 1) * (d + k)) / kappa(d * (d + k + 1))


def q_ratio_by_loop(d: int, k: int):
    """q(d, k) = 4^k (d+2)...(d+k+1) / ((b+1)...(b+k)), b = d(d+k+1), one factor at a time."""
    from fractions import Fraction

    num = 1
    for j in range(d + 2, d + k + 2):
        num *= j
    den = 1
    base = d * (d + k + 1)
    for j in range(base + 1, base + k + 1):
        den *= j
    return Fraction(4) ** k * Fraction(num, den)


def triangle_second_coordinate_moments() -> tuple[float, float]:
    """(mean, variance) of a coordinate of a uniform point in the standard triangle."""
    mean = 1.0 / 3.0
    second, _ = dblquad(lambda y, x: x * x, 0.0, 1.0, 0.0, lambda x: 1.0 - x)
    var = second / 0.5 - mean * mean
    return mean, var


def bareiss_det(rows):
    """The determinant of a square matrix, by Bareiss elimination in Fractions."""
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in rows]
    n, sign, previous = len(a), 1, Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / previous
        previous = a[k][k]
    return sign * a[-1][-1]


def det_moment_by_rows(rows, power=4):
    """E det(A)^power for a (d+1)x(d+1) matrix A with independent rows z_i = (1, x_i).

    ``rows`` holds, per row, a function from the exponents alpha = (a_1, ...,
    a_d) to E x^alpha, as a dict p -> Fraction standing for sum c_p pi^-p.
    det(A)^power is the sum over ``power``-tuples of permutations of
    prod_j sgn s_j prod_i z_{i, s_j(i)}, and the rows are independent, so
    the sum runs row by row (Nyquist, Rice & Riordan 1954): the state is the
    ``power`` sets of columns used so far, as bitmasks.  Placing column c
    after a set S multiplies by (-1)^|{s in S : s > c}| and adds one to the
    exponent of column c (column 0 is the constant 1).  The row factor is
    symmetric in the ``power`` permutations, so a state is kept sorted, with
    the sum over the orderings it stands for.
    """
    from collections import defaultdict
    from fractions import Fraction
    from itertools import product

    n = len(rows)
    states = {(0,) * power: {0: Fraction(1)}}
    for moment in rows:
        cache = {}
        following = defaultdict(lambda: defaultdict(Fraction))
        for sets, value in states.items():
            free = [[c for c in range(n) if not s >> c & 1] for s in sets]
            for cols in product(*free):
                alpha = tuple(cols.count(c) for c in range(1, n))
                if alpha not in cache:
                    cache[alpha] = moment(alpha)
                factor = cache[alpha]
                if not factor:
                    continue
                sign = (-1) ** sum(bin(s >> (c + 1)).count("1") for s, c in zip(sets, cols))
                target = following[tuple(sorted(s | 1 << c for s, c in zip(sets, cols)))]
                for p, a in value.items():
                    for q, b in factor.items():
                        target[p + q] += sign * a * b
        states = following
    (total,) = states.values()
    return {p: c for p, c in total.items() if c}


def _gamma_half_pi(two_n: int):
    """Gamma(two_n/2) as (rational, power of sqrt(pi))."""
    from fractions import Fraction

    num, den, root = gamma_half_by_recurrence(two_n)
    return Fraction(num, den), root


def ball_monomial_moment(d: int, half: bool = False):
    """E x^alpha for x uniform in the unit d-ball, or with ``half`` in the
    half-ball {x_1 >= 0}, whose x_1 is |x_1| of a ball point.

    A uniform point is r u with u uniform on the sphere and E r^m = d/(m+d),
    and E |u|^alpha = Gamma(d/2) prod_i Gamma((a_i+1)/2) / (Gamma((|a|+d)/2)
    pi^(d/2)); a monomial with an odd exponent of a signed coordinate has
    mean 0.
    """

    def moment(alpha):
        if any(a % 2 for a in alpha[1 if half else 0:]):
            return {}
        m = sum(alpha)
        value, root = _gamma_half_pi(d)
        for a in alpha:
            g, r = _gamma_half_pi(a + 1)
            value, root = value * g, root + r
        g, r = _gamma_half_pi(m + d)
        value, root = value / g * d / (m + d), root - r - d
        assert root % 2 == 0 and root <= 0
        return {-root // 2: value}

    return moment


def simplex_monomial_moment(d: int):
    """E x^alpha in the reference simplex conv(0, e_1, ..., e_d), whose
    barycentric coordinates are Dirichlet(1, ..., 1): d! prod a_i! / (d + |a|)!."""
    from fractions import Fraction
    from math import factorial, prod

    def moment(alpha):
        return {0: Fraction(factorial(d) * prod(map(factorial, alpha)),
                            factorial(d + sum(alpha)))}

    return moment


def fixed_row(x):
    """The deterministic row z = (1, x) of a fixed vertex: x^alpha."""
    from fractions import Fraction
    from math import prod

    return lambda alpha: {0: prod((Fraction(c) ** a for c, a in zip(x, alpha)), start=Fraction(1))}


def volume_moment_by_permutations(kind: str, d: int, fixed=None, power=4):
    """E V^power of a random simplex, from :func:`det_moment_by_rows`, as a PiPolynomial.

    ``kind`` is "ball", "halfball" or "simplex"; ``fixed`` the coordinates
    of a fixed vertex, or None.  V = |det A| / d!, with an even ``power``.
    A simplex is normalized to unit volume: the reference simplex has
    volume 1/d!, so its E V^power at unit volume is E det(A)^power.
    """
    from fractions import Fraction
    from math import factorial

    from sylvester.exactnum import PiPolynomial

    row = (simplex_monomial_moment(d) if kind == "simplex"
           else ball_monomial_moment(d, half=kind == "halfball"))
    rows = [row] * (d + 1) if fixed is None else [fixed_row(fixed)] + [row] * d
    scale = 1 if kind == "simplex" else Fraction(1, factorial(d) ** power)
    return PiPolynomial({-2 * p: c * scale for p, c in det_moment_by_rows(rows, power).items()})


def second_moment_by_bordered_det(mu, cov, x=None):
    """E V^2 of a random simplex from the centroid ``mu`` and covariance ``cov``.

    The rows z_i = (1, x_i) have the second-moment matrix
    M = [[1, mu^T], [mu, cov + mu mu^T]].  With every vertex random,
    E (det A)^2 = (d+1)! det M; with one vertex fixed at x and u = (1, x),
    it is d! u^T adj(M) u = -d! det [[M, u], [u^T, 0]].  V = |det A| / d!.
    """
    from math import factorial

    d = len(mu)
    m = [[1, *mu]] + [[mu[i], *(cov[i][j] + mu[i] * mu[j] for j in range(d))]
                      for i in range(d)]
    if x is None:
        return factorial(d + 1) * bareiss_det(m) / factorial(d) ** 2
    u = [1, *x]
    bordered = [row + [ui] for row, ui in zip(m, u)] + [u + [0]]
    return -bareiss_det(bordered) / factorial(d)


def ball_centroid_covariance(d: int):
    """The unit d-ball: mu = 0, and E x_i x_j = delta_ij / (d+2)."""
    from fractions import Fraction

    return [0] * d, [[Fraction(int(i == j), d + 2) for j in range(d)] for i in range(d)]


def halfball_centroid_covariance(d: int):
    """The unit d-half-ball {x_1 >= 0}, for odd d, where its centroid is rational.

    mu_1 = E|x_1| = 2 Gamma(d/2 + 1) / ((d+1) sqrt(pi) Gamma((d+1)/2)), with
    the gammas from their recurrence; the second moments are the ball's.
    """
    from fractions import Fraction

    assert d % 2 == 1, "mu_1 has a factor 1/pi in even d"
    num_a, den_a, root_a = gamma_half_by_recurrence(d + 2)
    num_b, den_b, root_b = gamma_half_by_recurrence(d + 1)
    assert (root_a, root_b) == (1, 0)  # the sqrt(pi) cancels
    mu_1 = 2 * Fraction(num_a, den_a) / ((d + 1) * Fraction(num_b, den_b))
    mu, second = ball_centroid_covariance(d)
    mu[0] = mu_1
    second[0][0] -= mu_1 * mu_1
    return mu, second


def reference_simplex_centroid_covariance(d: int):
    """conv(0, e_1, ..., e_d): Dirichlet(1, ..., 1) moments, E l_i = 1/(d+1)
    and E l_i l_j = (1 + delta_ij) / ((d+1)(d+2))."""
    from fractions import Fraction

    mean = Fraction(1, d + 1)
    second = [[Fraction(1 + (i == j), (d + 1) * (d + 2)) for j in range(d)] for i in range(d)]
    return [mean] * d, [[second[i][j] - mean * mean for j in range(d)] for i in range(d)]

