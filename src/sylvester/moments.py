"""Closed-form moments of random simplex volumes, returned exactly.

A "random simplex" in a convex body K is the convex hull of d+1 points drawn
independently and uniformly from K; optionally one vertex is pinned at a fixed
point x (written below as the "fixed-vertex" variant).  For intervals, balls,
balls with a fixed center vertex, half-balls with the base center fixed,
triangles and triangles with an edge-midpoint vertex, the k-th moment of the
simplex volume has an exact closed form at every k, and the free tetrahedron
has one at k = 1, in the ring handled by :mod:`sylvester.exactnum`; this
module evaluates all of them, plus the ratio quantities used to exhibit
failures of monotonicity under set inclusion.

Every supported pair also has its second moment (k = 2) exactly, from the
body's centroid mu and covariance Sigma alone (:func:`second_moment`): so the
free half-ball and the tetrahedron, free or with a facet-centroid vertex, are
exact at k = 2 too.  Their fourth moments (k = 4) are constants in the
support table, for the free half-ball at d = 3 and 4 only.

Triangle and tetrahedron moments are normalized to unit-volume bodies (the
moments are affine-invariant, so this is the canonical form); use
:func:`scale_to_volume` to translate to a body of any other volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, lcm, perm
from typing import TYPE_CHECKING, Callable, Mapping

from .exactnum import SQRT_PI, PiPolynomial, gamma_half, gamma_half_parts

if TYPE_CHECKING:
    from . import montecarlo as mc


class UnsupportedQueryError(ValueError):
    """The (body, fixed-vertex) pair, or its closed form at this order, is not implemented."""


def interval_moment(k: int, l: Fraction | int) -> PiPolynomial:
    """k-th moment of the distance of two uniform points in an interval of length l.

    Equals 2 l^k / ((k+1)(k+2)); purely rational.
    """
    _check_order(k)
    l = Fraction(l)
    if l <= 0:
        raise ValueError(f"interval length must be positive, got {l}")
    return PiPolynomial.from_rational(2 * l**k / ((k + 1) * (k + 2)))


def ball_moment(d: int, k: int) -> PiPolynomial:
    """k-th volume moment of a random simplex in the unit d-ball (all vertices random)."""
    _check_dim(d)
    _check_order(k)
    return _miles_product(d, k, free=True)


def ball_fixed_moment(d: int, k: int) -> PiPolynomial:
    """k-th volume moment with one vertex fixed at the center of the unit d-ball."""
    _check_dim(d)
    _check_order(k)
    return _miles_product(d, k, free=False)


def halfball_fixed_moment(d: int, k: int) -> PiPolynomial:
    """k-th volume moment in the unit d-half-ball with one vertex fixed at the base center.

    Coincides exactly with :func:`ball_fixed_moment`: reflecting each random
    vertex through the base hyperplane leaves the simplex volume unchanged, and
    those reflections map the half-ball measure onto the full-ball measure.
    """
    _check_dim(d)
    _check_order(k)
    return ball_fixed_moment(d, k)


def _miles_product(d: int, k: int, free: bool) -> PiPolynomial:
    """Miles' ball moment, built as one term c * pi^(h/2) in integers.

    With kappa_n = pi^(n/2) / Gamma(n/2 + 1) and omega_n = n kappa_n, the
    fixed-center moment is

        (kappa_{d+k} / kappa_d)^d / (d!)^k * prod_{j=1..k} omega_j / omega_{d+j},

    and the free one has the exponent d+1 and the extra factor
    kappa_{d(d+k+1)} / kappa_{(d+1)(d+k)}.  The omega product telescopes to
    pi^(-dk/2) * prod_{j=k+1..k+d} Gamma(j/2) / prod_{j=1..d} Gamma(j/2), and
    the powers of pi outside the gammas cancel.  What is left is (d!)^-k
    times about 2d + 4 gammas at half-integers: their numerators,
    denominators and powers of sqrt(pi) are multiplied as integers, and the
    fraction is reduced once.
    """
    p = d + 1 if free else d
    gammas = [(d + 2, p), (d + k + 2, -p)]  # (twice the argument, exponent)
    gammas += [(j, 1) for j in range(k + 1, k + d + 1)]
    gammas += [(j, -1) for j in range(1, d + 1)]
    if free:
        gammas += [((d + 1) * (d + k) + 2, 1), (d * (d + k + 1) + 2, -1)]
    num, den, h = 1, factorial(d) ** k, 0
    for two_n, e in gammas:
        g_num, g_den, g_h = gamma_half_parts(two_n)
        if e < 0:
            g_num, g_den, g_h, e = g_den, g_num, -g_h, -e
        num *= g_num**e
        den *= g_den**e
        h += g_h * e
    return PiPolynomial({h: Fraction(num, den)})


def _inverse_sum(values: list[int], power: int = 1) -> tuple[int, int]:
    """sum(Fraction(1, c) ** power for c in values) as (numerator, denominator),
    not reduced: in integers over one denominator, the values' lcm to the power."""
    common = lcm(*values)
    return sum((common // c) ** power for c in values), common**power


def _triangle_moment_q(k: int) -> Fraction:
    # 12 (6 (k+1)^2 + (k+2)^2 sum_i C(k, i)^-2) / ((k+1)^3 (k+2)^3 (k+3) (2k+5))
    num, den = _inverse_sum([comb(k, i) for i in range(k + 1)], 2)
    return Fraction(12 * (6 * (k + 1) ** 2 * den + (k + 2) ** 2 * num),
                    (k + 1) ** 3 * (k + 2) ** 3 * (k + 3) * (2 * k + 5) * den)


def _triangle_midpoint_moment_q(k: int) -> Fraction:
    # 2^3 (1 + sum_{l=1..k+1} C(k+2, l)^-1) / (2^k (k+1) (k+2)^2 (k+3))
    num, den = _inverse_sum([comb(k + 2, l) for l in range(1, k + 2)])
    return Fraction(8 * (den + num), ((k + 1) * (k + 2) ** 2 * (k + 3) * den) << k)


def triangle_moment(k: int) -> PiPolynomial:
    """k-th area moment of a random triangle in a triangle of unit area."""
    _check_order(k)
    return PiPolynomial.from_rational(_triangle_moment_q(k))


def triangle_midpoint_moment(k: int) -> PiPolynomial:
    """k-th area moment with one vertex fixed at an edge midpoint, unit-area triangle."""
    _check_order(k)
    return PiPolynomial.from_rational(_triangle_midpoint_moment_q(k))


def cutoff_integral_right_angle(k: int) -> PiPolynomial:
    """Line-integral contribution from lines cutting off the right-angle vertex.

    For the reference right triangle, integrates (chord length)^(k+3) times
    (distance of the chord from the edge midpoint)^k over all lines separating
    the right-angle vertex.  Equals
    1/(2^k (k+1)(k+2)) * sum_{l=1}^{k+1} C(k+2,l)^{-1}, which matches the
    planar quadrature (1/2^k) * int_0^1 int_0^1 (a+b-2ab)^k * ab da db.
    """
    _check_order(k)
    num, den = _inverse_sum([comb(k + 2, l) for l in range(1, k + 2)])
    return PiPolynomial.from_rational(Fraction(num, ((k + 1) * (k + 2) * den) << k))


def cutoff_integral_acute(k: int) -> PiPolynomial:
    """Contribution from lines cutting off either acute vertex: 1/(2^(k+1)(k+1)(k+2)).

    The two acute vertices contribute equally by symmetry; this is the value
    for one of them.
    """
    _check_order(k)
    return PiPolynomial.from_rational(Fraction(1, 2 ** (k + 1) * (k + 1) * (k + 2)))


def midpoint_moment_from_cutoff_integrals(k: int) -> PiPolynomial:
    """Edge-midpoint moment reassembled from the three partial line integrals.

    Combines the right-angle contribution plus twice the acute one with the
    2^(3-k)/((k+2)(k+3)) prefactor for the reference right triangle of area
    1/2, then rescales to unit area.  Must agree exactly with
    :func:`triangle_midpoint_moment`; the test suite exercises this
    recombination explicitly.
    """
    _check_order(k)
    combined = cutoff_integral_right_angle(k) + 2 * cutoff_integral_acute(k)
    reference = combined * Fraction(2**3, 2**k * (k + 2) * (k + 3))
    return reference * Fraction(2) ** k


def q_ratio(d: int, k: int) -> Fraction:
    """Upper-bound series q(d,k) controlling the fixed-vertex/free moment ratio in half-balls.

    q(d,k) = 4^k * ((d+2)...(d+k+1)) / ((d(d+k+1)+1)...(d(d+k+1)+k)).
    The square root of q(d,k) bounds E V^k with base-center vertex over E V^k
    free in the d-half-ball; q < 1 therefore certifies a monotonicity failure.
    """
    if d < 2:
        raise ValueError("q_ratio requires d >= 2")
    if k < 1:
        raise ValueError("q_ratio requires k >= 1")
    num = perm(d + k + 1, k)  # (d+2)...(d+k+1)
    base = d * (d + k + 1)
    den = perm(base + k, k)  # (base+1)...(base+k)
    return Fraction(4) ** k * Fraction(num, den)


def q_ratios(d: int, k_max: int) -> list[Fraction]:
    """[q(d, 1), ..., q(d, k_max)], each from the one before (see :func:`q_ratio`).

    With B = d(d+k), the factor from q(d, k-1) to q(d, k) is
    4 (d+k+1) (B+1)...(B+d) / ((B+k)...(B+k+d)): the numerator gains the
    factor d+k+1, and the denominator's run of k factors moves from
    B+1...B+k-1 to B+d+1...B+d+k.  Every step multiplies 2d + 2 small
    factors, where :func:`q_ratio` multiplies out 2k; both give the same
    reduced Fractions.
    """
    if d < 2:
        raise ValueError("q_ratios requires d >= 2")
    qs, q = [], Fraction(1)  # q(d, 0)
    for k in range(1, k_max + 1):
        b = d * (d + k)
        q *= Fraction(4 * (d + k + 1) * perm(b + d, d), perm(b + k + d, d + 1))
        qs.append(q)
    return qs


def exact_ratio_bound(d: int, k: int) -> PiPolynomial:
    """Exact upper bound for the fixed-vertex/free moment ratio in the d-half-ball.

    The base-center moment over the free moment in the ball of the half-ball's
    volume, kappa_d / 2, which bounds the free moment from below.  Scaling to
    that ball (r^d = 1/2) divides the free moment by 2^k, so the bound is
    2^k ball_fixed_moment(d, k) / ball_moment(d, k), equal to
    2^k (kappa_d / kappa_{d+k}) (kappa_{(d+1)(d+k)} / kappa_{d(d+k+1)}).
    """
    _check_dim(d)
    if k < 1:
        raise ValueError("exact_ratio_bound requires k >= 1")
    return ball_fixed_moment(d, k) * Fraction(2) ** k / ball_moment(d, k)


def tx_over_t_ratio(k: int) -> Fraction:
    """Ratio of the edge-midpoint moment to the free moment for a triangle.

    Computed as triangle_midpoint_moment(k) / triangle_moment(k); identical to
    the direct closed form
    (k+1)^2 (k+2)(2k+5) / (3*2^(k-1)) * (sum_l C(k+2,l)^{-1} + 1)
                                      / (6(k+1)^2 + (k+2)^2 sum_i C(k,i)^{-2}).
    """
    _check_order(k)
    return _triangle_midpoint_moment_q(k) / _triangle_moment_q(k)


def tetrahedron_moment_k1() -> PiPolynomial:
    """Expected volume of a random tetrahedron in a tetrahedron of unit volume."""
    return PiPolynomial({0: Fraction(13, 720), 4: Fraction(-1, 15015)})


def scale_to_volume(
    unit_moment: PiPolynomial | Fraction, volume: Fraction | int, k: int
) -> PiPolynomial | Fraction:
    """Rescale a unit-volume k-th moment to a body of the given volume."""
    _check_order(k)
    volume = Fraction(volume)
    if volume <= 0:
        raise ValueError("volume must be positive")
    return unit_moment * volume**k


# ---------------------------------------------------------------------------
# second moments from the centroid and the covariance


@dataclass(frozen=True)
class Covariance:
    """What E V^2 needs of a body's centroid mu and covariance Sigma.

    ``det`` is det Sigma; ``vertex`` is (x - mu)^T adj(Sigma) (x - mu), that
    is det Sigma times the squared Mahalanobis distance of the fixed vertex x,
    or None when no vertex is fixed.
    """

    det: PiPolynomial
    vertex: PiPolynomial | None = None


def second_moment(d: int, cov: Covariance) -> PiPolynomial:
    """E V^2 of a random simplex in a body of R^d, from its covariance.

    The volume is |det A| / d!, where A has the rows z_i = (1, x_i).  For
    independent rows, E (det A)^2 is the sum over pairs of permutations
    (s, t) of sgn s sgn t prod_i E[z_{i,s(i)} z_{i,t(i)}] (Nyquist, Rice &
    Riordan 1954).  When the d+1 rows are i.i.d. with M = E z z^T this is
    (d+1)! det M, and when row 0 is fixed at u = (1, x) it is
    d! u^T adj(M) u.  Here det M = det Sigma and
    u^T adj(M) u = det Sigma + (x - mu)^T adj(Sigma) (x - mu), so

        E V^2 = (d+1) det Sigma / d!   and   E_x V^2 = (det Sigma + vertex) / d!.
    """
    total = cov.det * (d + 1) if cov.vertex is None else cov.det + cov.vertex
    return total / factorial(d)


def _ball_covariance(d: int, centre: bool) -> Covariance:
    """The unit d-ball: mu = 0 and Sigma = I / (d+2)."""
    return Covariance(PiPolynomial.from_rational(Fraction(1, (d + 2) ** d)),
                      PiPolynomial.zero() if centre else None)


def _halfball_covariance(d: int, base_centre: bool) -> Covariance:
    """The unit d-half-ball {x_1 >= 0}: mu = mu_1 e_1 and Sigma = I/(d+2) - mu_1^2 e_1 e_1^T.

    mu_1 = 2 kappa_{d-1} / ((d+1) kappa_d)
    = 2 Gamma(d/2 + 1) / ((d+1) sqrt(pi) Gamma((d+1)/2)) is one term (3/8
    at d = 3, 16/(15 pi) at d = 4), so det Sigma = (d+2)^-(d-1) (1/(d+2) -
    mu_1^2).  At the base centre, x - mu = -mu_1 e_1 and adj(Sigma)_11 =
    (d+2)^-(d-1).
    """
    mu_1 = gamma_half(d + 2) * 2 / (gamma_half(d + 1) * SQRT_PI * (d + 1))
    mu_1_sq = mu_1 * mu_1
    lead = Fraction(1, (d + 2) ** (d - 1))
    return Covariance((Fraction(1, d + 2) - mu_1_sq) * lead,
                      mu_1_sq * lead if base_centre else None)


def _simplex_covariance(d: int, facet_centroid: bool) -> Covariance:
    """A d-simplex of unit volume, free or with a vertex at a facet centroid.

    In the reference simplex conv(0, e_1, ..., e_d) the barycentric
    coordinates are Dirichlet(1, ..., 1): mu = (1, ..., 1)/(d+1) and
    Sigma = ((d+1) I - J) / ((d+1)^2 (d+2)), so det Sigma =
    (d+1)^-(d+1) (d+2)^-d, and the squared Mahalanobis distance of a point
    with barycentric coordinates lambda is (d+1)(d+2) sum_i (lambda_i -
    1/(d+1))^2: (d+2)/d at a facet centroid.  The linear map onto a simplex
    of unit volume has determinant d!, which multiplies det Sigma by (d!)^2
    and leaves the distance as it is.
    """
    det = Fraction(factorial(d) ** 2, (d + 1) ** (d + 1) * (d + 2) ** d)
    return Covariance(PiPolynomial.from_rational(det),
                      PiPolynomial.from_rational(det * Fraction(d + 2, d))
                      if facet_centroid else None)


TABLE1_KS = tuple(range(3, 11))


@dataclass(frozen=True)
class Table1Row:
    k: int
    midpoint_moment: Fraction
    free_moment: Fraction
    ratio: Fraction

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "midpoint_moment": str(self.midpoint_moment),
            "free_moment": str(self.free_moment),
            "ratio": str(self.ratio),
            "ratio_decimal": PiPolynomial.from_rational(self.ratio).to_decimal(6),
        }


def table1_rows() -> list[Table1Row]:
    """The triangle moment table for k = 3..10 (unit-area triangle, exact)."""
    return [
        Table1Row(
            k=k,
            midpoint_moment=_triangle_midpoint_moment_q(k),
            free_moment=_triangle_moment_q(k),
            ratio=tx_over_t_ratio(k),
        )
        for k in TABLE1_KS
    ]


#: First moment order at which the triangle family fails monotonicity in the plane.
PLANE_CRITICAL_ORDER = 3
#: First order at which q(2, .) < 1.
HALFDISK_CRITICAL_ORDER = 11
#: d -> the order k from which q(d, .) decreases strictly: q(d, k+1) < q(d, k).
Q_DECREASING_FROM = {2: 4, 3: 2}


@dataclass(frozen=True)
class PlaneCounterexampleReport:
    """Which planar family (if any) witnesses non-monotonicity at order k."""

    k: int
    family: str  # "triangle" | "halfdisk" | "none"
    counterexample: bool
    triangle_ratio: Fraction | None
    q2: Fraction | None
    note: str

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "family": self.family,
            "counterexample": self.counterexample,
            "triangle_ratio": None if self.triangle_ratio is None else str(self.triangle_ratio),
            "q2": None if self.q2 is None else str(self.q2),
            "note": self.note,
        }


def plane_counterexample_report(k: int) -> PlaneCounterexampleReport:
    """Planar non-monotonicity witness for moment order k, as exact data.

    Orders 1 and 2 admit no counterexample from these families (the triangle
    edge-midpoint ratio is 10/9 at k=1 and exactly 1 at k=2).  Orders 3..10 use
    the triangle family, whose exact ratio drops below 1.  From order 11 on the
    half-disk family takes over: q(2,k) < 1 there, and q(2,.) decreases
    strictly from order ``Q_DECREASING_FROM[2]``, so the witness persists for
    every larger k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k < PLANE_CRITICAL_ORDER:
        ratio = tx_over_t_ratio(k)
        note = (
            "edge-midpoint ratio equals 1; the two moments coincide"
            if ratio == 1
            else f"edge-midpoint ratio {ratio} >= 1; reported as data only"
        )
        return PlaneCounterexampleReport(
            k=k,
            family="none",
            counterexample=False,
            triangle_ratio=ratio,
            q2=q_ratio(2, k),
            note="no counterexample from these families: " + note,
        )
    if k <= 10:
        ratio = tx_over_t_ratio(k)
        assert ratio < 1
        return PlaneCounterexampleReport(
            k=k,
            family="triangle",
            counterexample=True,
            triangle_ratio=ratio,
            q2=None,
            note=f"unit triangle with edge-midpoint vertex: exact ratio {ratio} < 1",
        )
    q2 = q_ratio(2, k)
    assert q2 < 1
    return PlaneCounterexampleReport(
        k=k,
        family="halfdisk",
        counterexample=True,
        triangle_ratio=None,
        q2=q2,
        note=(
            f"half-disk with base-center vertex: q(2,{k}) = {q2} < 1; "
            f"q(2,.) decreases strictly from order {Q_DECREASING_FROM[2]} and is < 1 "
            f"from order {HALFDISK_CRITICAL_ORDER} on"
        ),
    )


# ---------------------------------------------------------------------------
# the (body, fixed-vertex) support table


@dataclass(frozen=True)
class Support:
    """What is implemented for one (body, fixed-vertex) pair."""

    d: int | None  # the body's dimension; None: any d >= 1, set by the query
    covariance: Callable[[int, Fraction | None], Covariance]  # (d, l), for the k = 2 form
    closed_form: Callable[[int, int, Fraction | None], PiPolynomial] | None = None  # (d, k, l)
    # (d, k) -> E V^k beside the k = 2 form, on a row without closed_form
    constants: Mapping[tuple[int, int], PiPolynomial] = field(default_factory=dict)

    def exact_at(self, d: int, k: int) -> bool:
        return self.closed_form is not None or k == 2 or (d, k) in self.constants

    def moment(self, d: int, k: int, l: Fraction | None) -> PiPolynomial:
        """The form at an order it has: ``closed_form`` where it holds at
        every order, else :func:`second_moment` at k = 2 and the
        ``constants`` entry at any other (d, k)."""
        if self.closed_form is not None:
            return self.closed_form(d, k, l)
        if k == 2:
            return second_moment(d, self.covariance(d, l))
        return self.constants[d, k]

    def describe(self) -> str:
        d = "any d" if self.d is None else f"d={self.d}"
        if self.closed_form is not None:
            return f"{d}, exact any k"
        orders = sorted({k for _, k in self.constants})
        if self.d is not None:
            return f"{d}, exact k={','.join(map(str, sorted({2, *orders})))} only"
        text = f"{d}, exact k=2"
        for k in orders:
            at = ",".join(str(e) for e, j in sorted(self.constants) if j == k)
            text += f", and k={k} at d={at}"
        return text + " only"


class _SupportTable(dict):
    def __missing__(self, pair):
        raise UnsupportedQueryError(f"body={pair[0]} fixed={pair[1]} is not supported; "
                                    f"supported: {SUPPORTED}")


def _length(l: Fraction | int | None) -> Fraction:
    return Fraction(1) if l is None else Fraction(l)


def _mc():
    """:mod:`.montecarlo`, imported when a sampler is first built: it loads
    numpy, which no closed form needs."""
    from . import montecarlo

    return montecarlo


#: body kind -> its sampler body for (d, interval length), and fixed kind ->
#: the fixed vertex in dimension d: the samplers of every :data:`SUPPORT` pair.
_BODIES = {
    "interval": lambda d, l: _mc().Interval(_length(l)),
    "ball": lambda d, l: _mc().Ball(d),
    "halfball": lambda d, l: _mc().HalfBall(d),
    "triangle": lambda d, l: _mc().unit_area_triangle(),
    "tetrahedron": lambda d, l: _mc().unit_volume_tetrahedron(),
}
_FIXED = {
    "none": lambda d: _mc().NO_FIXED_POINT,
    "origin": lambda d: _mc().FixedPoint((0.0,) * d),
    "edge_midpoint": lambda d: _mc().triangle_edge_midpoint(),
    "facet_centroid": lambda d: _mc().tetrahedron_facet_centroid(),
}


#: (body kind, fixed kind) -> :class:`Support`; looking up any other pair
#: raises :class:`UnsupportedQueryError` listing the supported ones.  The
#: ``constants`` are tetrahedron/none's E V, and E V^4 of each pair without a
#: closed form at every k, from the expansion of E det^4 over four
#: permutations (Nyquist, Rice & Riordan 1954), run row by row on each body's
#: monomial moments of order <= 4; the test suite re-derives each.  The
#: half-ball's have pi in even d, the simplices' are rational.
SUPPORT = _SupportTable({
    ("interval", "none"): Support(1, lambda d, l: Covariance(
                                      PiPolynomial.from_rational(_length(l) ** 2 / 12)),
                                  lambda d, k, l: interval_moment(k, _length(l))),
    ("ball", "none"): Support(None, lambda d, l: _ball_covariance(d, False),
                              lambda d, k, l: ball_moment(d, k)),
    ("ball", "origin"): Support(None, lambda d, l: _ball_covariance(d, True),
                                lambda d, k, l: ball_fixed_moment(d, k)),
    ("halfball", "none"): Support(None, lambda d, l: _halfball_covariance(d, False), constants={
        (3, 4): PiPolynomial.from_rational(Fraction(9827, 702464000)),
        (4, 4): PiPolynomial({0: Fraction(475, 3057647616), -4: Fraction(-83, 54867456),
                              -8: Fraction(64, 43758225)})}),
    ("halfball", "origin"): Support(None, lambda d, l: _halfball_covariance(d, True),
                                    lambda d, k, l: halfball_fixed_moment(d, k)),
    ("triangle", "none"): Support(2, lambda d, l: _simplex_covariance(2, False),
                                  lambda d, k, l: triangle_moment(k)),
    ("triangle", "edge_midpoint"): Support(2, lambda d, l: _simplex_covariance(2, True),
                                           lambda d, k, l: triangle_midpoint_moment(k)),
    ("tetrahedron", "none"): Support(3, lambda d, l: _simplex_covariance(3, False), constants={
        (3, 1): tetrahedron_moment_k1(),
        (3, 4): PiPolynomial.from_rational(Fraction(871, 123480000))}),
    ("tetrahedron", "facet_centroid"): Support(3, lambda d, l: _simplex_covariance(3, True),
                                               constants={(3, 4): PiPolynomial.from_rational(
                                                   Fraction(43, 27783000))}),
})
SUPPORTED = ", ".join(f"{b}/{f} ({row.describe()})" for (b, f), row in SUPPORT.items())
BODY_KINDS = tuple(dict.fromkeys(b for b, _ in SUPPORT))
FIXED_KINDS = tuple(dict.fromkeys(f for _, f in SUPPORT))


@dataclass(frozen=True)
class MomentQuery:
    """A (d, k, body, fixed vertex, interval length) selector for an exact or estimated moment."""

    d: int
    k: int
    body_kind: str
    fixed_kind: str = "none"
    l: Fraction | int | None = None  # interval length; None means 1

    def __post_init__(self):
        support = self.support
        if self.d < 1:
            raise ValueError(f"{self.body_kind} dimension must be >= 1, got {self.d}")
        if self.k < 0:
            raise ValueError("moment order must be >= 0")
        if support.d is not None and self.d != support.d:
            raise ValueError(f"{self.body_kind} queries require d={support.d}, got d={self.d}")
        if self.l is not None and self.body_kind != "interval":
            raise ValueError(f"a length applies to body interval only, not {self.body_kind}")
        if self.l is not None and self.l <= 0:
            raise ValueError(f"interval length must be positive, got {self.l}")

    @property
    def support(self) -> Support:
        return SUPPORT[self.body_kind, self.fixed_kind]

    def sampler(self) -> tuple[mc.Body, mc.FixedPointSpec]:
        """(body, fixed vertex) for estimating the moment by Monte Carlo."""
        return _BODIES[self.body_kind](self.d, self.l), _FIXED[self.fixed_kind](self.d)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "body": self.body_kind,
            "fixed": self.fixed_kind,
            "l": None if self.l is None else str(self.l),
        }


#: The largest size of a closed form that is built.  The size is d*(d+k+1):
#: the ball forms' largest gamma factors are at about half that size,
#: q(d, k)'s largest factor is d(d+k+1) + k, and the triangle forms (d = 2)
#: sum k + 1 binomial terms.  An interval length l enters as l^k, so the size
#: is multiplied by the 64-bit words of l's numerator or denominator,
#: whichever is longer.  A ball form is one product of about 2d + 4 gammas,
#: reduced once, and takes milliseconds even at the limit.  What bounds the
#: time is the triangle sums, whose cost grows about as the square of k or
#: faster, and qscan's q(d, k) for every k up to --k-max (each from the one
#: before, :func:`q_ratios`): at the limit they take well under a second, far
#: beyond it minutes.
MAX_CLOSED_FORM_SIZE = 2000


def check_closed_form_size(d: int, k: int, l: Fraction | int | None = None) -> None:
    """Raise ValueError if the closed form at (d, k, l) is above :data:`MAX_CLOSED_FORM_SIZE`."""
    size = d * (d + k + 1)
    if l is not None:
        l = Fraction(l)
        size *= -(-max(l.numerator.bit_length(), l.denominator.bit_length()) // 64)
    if size > MAX_CLOSED_FORM_SIZE:
        raise ValueError(f"the closed form at d={d}, k={k} has size {size}, above the limit "
                         f"{MAX_CLOSED_FORM_SIZE} (size: d*(d+k+1), times the 64-bit words "
                         f"of an interval length)")


def exact_moment(query: MomentQuery) -> PiPolynomial:
    """The closed form of a :class:`MomentQuery`.

    Raises :class:`UnsupportedQueryError` for queries without one, and
    ValueError for one above :data:`MAX_CLOSED_FORM_SIZE`.
    """
    support = query.support
    if not support.exact_at(query.d, query.k):
        raise UnsupportedQueryError(
            f"no closed form for body={query.body_kind} fixed={query.fixed_kind} "
            f"d={query.d} k={query.k}; supported: {SUPPORTED}"
        )
    check_closed_form_size(query.d, query.k, query.l)
    return support.moment(query.d, query.k, query.l)


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


def _check_order(k: int) -> None:
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
