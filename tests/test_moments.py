import math
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from sylvester.exactnum import PI, PiPolynomial, pi_power
from sylvester.moments import (
    _triangle_midpoint_moment_q,
    _triangle_moment_q,
    MAX_CLOSED_FORM_SIZE,
    SUPPORT,
    MomentQuery,
    UnsupportedQueryError,
    ball_fixed_moment,
    ball_moment,
    check_closed_form_size,
    exact_moment,
    exact_ratio_bound,
    halfball_fixed_moment,
    cutoff_integral_right_angle,
    cutoff_integral_acute,
    interval_moment,
    plane_counterexample_report,
    q_ratio,
    q_ratios,
    scale_to_volume,
    second_moment,
    table1_rows,
    tetrahedron_moment_k1,
    midpoint_moment_from_cutoff_integrals,
    triangle_midpoint_moment,
    triangle_moment,
    tx_over_t_ratio,
)

from oracles import (
    ball_centroid_covariance,
    ball_moments_by_kappa_omega,
    halfball_centroid_covariance,
    halfball_first_coordinate_mean,
    i0_quadrature,
    i12_quadrature,
    interval_moment_quadrature,
    q_ratio_by_loop,
    ratio_bound_by_kappas,
    reference_simplex_centroid_covariance,
    second_moment_by_bordered_det,
    volume_moment_by_permutations,
)

F = Fraction

# All eight rows of the unit-area triangle table: k -> (midpoint, free, ratio)
TRIANGLE_TABLE = {
    3: (F(1, 375), F(31, 9000), F(24, 31)),
    4: (F(13, 21600), F(1, 900), F(13, 24)),
    5: (F(151, 987840), F(1063, 2469600), F(755, 2126)),
    6: (F(1, 23520), F(403, 2116800), F(90, 403)),
    7: (F(83, 6531840), F(211, 2268000), F(2075, 15192)),
    8: (F(73, 18144000), F(13, 264600), F(511, 6240)),
    9: (F(1433, 1073318400), F(2593, 93915360), F(10031, 207440)),
    10: (F(647, 1405071360), F(697, 42688800), F(22645, 802944)),
}


# ---------------------------------------------------------------------------
# interval


def test_interval_moment_values():
    assert interval_moment(0, 5) == 1
    assert interval_moment(1, 1) == F(1, 3)
    assert interval_moment(2, 1) == F(1, 6)
    assert interval_moment(1, 2) == F(2, 3)
    assert interval_moment(3, 2) == F(4, 5)
    assert interval_moment(2, F(1, 2)) == F(1, 24)


@pytest.mark.parametrize("k", range(0, 6))
def test_interval_moment_against_quadrature(k):
    exact = interval_moment(k, 1).to_float()
    assert exact == pytest.approx(interval_moment_quadrature(k, 1.0), rel=1e-9)


def test_interval_moment_domain():
    with pytest.raises(ValueError):
        interval_moment(1, 0)
    with pytest.raises(ValueError):
        interval_moment(1, F(-1, 2))
    with pytest.raises(ValueError):
        interval_moment(-1, 1)


# ---------------------------------------------------------------------------
# ball, fixed-vertex ball, half-ball


def test_ball_moment_values():
    assert ball_moment(1, 1) == F(2, 3)
    assert ball_moment(1, 3) == F(4, 5)
    # expected area of a random triangle in the unit disk: 35 / (48 pi)
    assert ball_moment(2, 1) == PiPolynomial({-2: F(35, 48)})
    assert ball_moment(3, 0) == 1


@pytest.mark.parametrize("k", range(0, 21))
def test_ball_moment_dimension_one_is_interval(k):
    assert ball_moment(1, k) == interval_moment(k, 2)


def test_ball_fixed_moment_values():
    assert ball_fixed_moment(3, 1) == PiPolynomial({2: F(9, 1024)})
    assert ball_fixed_moment(1, 1) == F(1, 2)
    assert ball_fixed_moment(2, 1) == PiPolynomial({-2: F(4, 9)})
    assert ball_fixed_moment(2, 0) == 1


def test_halfball_fixed_moment_values():
    assert halfball_fixed_moment(3, 1) == PiPolynomial({2: F(9, 1024)})
    assert halfball_fixed_moment(2, 1) == PiPolynomial({-2: F(4, 9)})
    for d in (1, 2, 3, 5):
        assert halfball_fixed_moment(d, 0) == 1


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("k", range(0, 11))
def test_halfball_equals_ball_with_fixed_center(d, k):
    assert halfball_fixed_moment(d, k) == ball_fixed_moment(d, k)


def test_ball_domain_errors():
    for bad in ((0, 1), (-2, 1), (1, -1)):
        with pytest.raises(ValueError):
            ball_moment(*bad)
        with pytest.raises(ValueError):
            ball_fixed_moment(*bad)
        with pytest.raises(ValueError):
            halfball_fixed_moment(*bad)


def _assert_ball_forms_match_the_oracle(d, k):
    free, fixed = ball_moments_by_kappa_omega(d, k)
    assert ball_moment(d, k).terms == free.terms
    assert ball_fixed_moment(d, k).terms == fixed.terms
    assert halfball_fixed_moment(d, k).terms == fixed.terms


# the largest accepted queries: d*(d+k+1) <= MAX_CLOSED_FORM_SIZE, k or d maximal
SIZE_LIMIT_EDGES = [(3, 662), (12, 153), (43, 1), (1, 997)]


def test_ball_forms_match_the_kappa_omega_product():
    for d in range(1, 13):
        for k in range(0, 41):
            _assert_ball_forms_match_the_oracle(d, k)
    for d, k in SIZE_LIMIT_EDGES:
        check_closed_form_size(d, k)
        _assert_ball_forms_match_the_oracle(d, k)


# the largest d with d*(d+1) <= MAX_CLOSED_FORM_SIZE, that is with k = 0 accepted
_MAX_BALL_D = (math.isqrt(4 * MAX_CLOSED_FORM_SIZE + 1) - 1) // 2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, _MAX_BALL_D).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, MAX_CLOSED_FORM_SIZE // d - d - 1))))
def test_telescoped_omega_product_holds_within_the_size_limit(dk):
    # the ball forms telescope prod_{j=1..k} omega_j / omega_{d+j}; the oracle
    # multiplies it out term by term, at any accepted (d, k)
    d, k = dk
    check_closed_form_size(d, k)
    _assert_ball_forms_match_the_oracle(d, k)


# ---------------------------------------------------------------------------
# triangle moments


def test_triangle_table_rows_exact():
    for k, (mid, free, ratio) in TRIANGLE_TABLE.items():
        assert triangle_midpoint_moment(k) == mid
        assert triangle_moment(k) == free
        assert tx_over_t_ratio(k) == ratio
    rows = table1_rows()
    assert [r.k for r in rows] == list(range(3, 11))
    for row in rows:
        mid, free, ratio = TRIANGLE_TABLE[row.k]
        assert (row.midpoint_moment, row.free_moment, row.ratio) == (mid, free, ratio)


def test_triangle_sums_over_one_denominator_equal_the_fraction_sums():
    for k in range(301):
        inv_sq = sum(F(1, math.comb(k, i)) ** 2 for i in range(k + 1))
        lead = F(12, (k + 1) ** 3 * (k + 2) ** 3 * (k + 3) * (2 * k + 5))
        assert _triangle_moment_q(k) == lead * (6 * (k + 1) ** 2 + (k + 2) ** 2 * inv_sq), k
        inv = sum(F(1, math.comb(k + 2, l)) for l in range(1, k + 2))
        lead = F(2**3, 2**k) / ((k + 1) * (k + 2) ** 2 * (k + 3))
        assert _triangle_midpoint_moment_q(k) == lead * (inv + 1), k


def test_triangle_low_order_values():
    assert triangle_moment(0) == 1
    assert triangle_moment(1) == F(1, 12)
    assert triangle_midpoint_moment(1) == F(5, 54)
    assert triangle_midpoint_moment(2) == triangle_moment(2) == F(1, 72)
    assert tx_over_t_ratio(2) == 1
    assert tx_over_t_ratio(1) == F(10, 9)


@pytest.mark.parametrize("k", range(0, 21))
def test_ratio_matches_displayed_closed_form(k):
    # independent evaluation of the ratio's own closed form
    from math import comb

    s1 = sum(F(1, comb(k + 2, l)) for l in range(1, k + 2)) + 1
    s2 = 6 * (k + 1) ** 2 + (k + 2) ** 2 * sum(
        F(1, comb(k, i)) ** 2 for i in range(k + 1)
    )
    direct = F((k + 1) ** 2 * (k + 2) * (2 * k + 5), 3) / F(2) ** (k - 1) * s1 / s2
    assert tx_over_t_ratio(k) == direct


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9, 10])
def test_ratio_below_one_in_counterexample_range(k):
    assert tx_over_t_ratio(k) < 1


# ---------------------------------------------------------------------------
# helper line integrals and their recombination


def test_cutoff_integral_values():
    assert cutoff_integral_right_angle(0) == F(1, 4)
    assert cutoff_integral_right_angle(1) == F(1, 18)
    assert cutoff_integral_right_angle(2) == F(1, 72)
    assert cutoff_integral_acute(0) == F(1, 4)
    assert cutoff_integral_acute(1) == F(1, 24)
    assert cutoff_integral_acute(2) == F(1, 96)


@pytest.mark.parametrize("k", range(0, 9))
def test_cutoff_integrals_against_quadrature(k):
    assert cutoff_integral_right_angle(k).to_float() == pytest.approx(
        i0_quadrature(k), rel=1e-8
    )
    assert cutoff_integral_acute(k).to_float() == pytest.approx(
        i12_quadrature(k), rel=1e-8
    )


@pytest.mark.parametrize("k", range(0, 21))
def test_midpoint_moment_from_cutoff_integrals_matches_midpoint_moment(k):
    assert midpoint_moment_from_cutoff_integrals(k) == triangle_midpoint_moment(k)


def test_midpoint_moment_from_cutoff_integrals_values():
    assert midpoint_moment_from_cutoff_integrals(0) == 1
    assert midpoint_moment_from_cutoff_integrals(1) == F(5, 54)
    assert midpoint_moment_from_cutoff_integrals(3) == F(1, 375)


# ---------------------------------------------------------------------------
# q series and the half-ball ratio bound


def test_q_ratio_values():
    assert q_ratio(3, 4) < 1
    assert q_ratio(3, 3) > 1
    assert q_ratio(2, 11) < 1
    assert q_ratio(2, 10) > 1
    assert q_ratio(2, 11) == F(29360128, 32231847)


@pytest.mark.parametrize("d", [2, 3])
def test_q_ratio_matches_the_loop_product(d):
    for k in range(1, 998):
        assert q_ratio(d, k) == q_ratio_by_loop(d, k)


@pytest.mark.parametrize("d", range(2, 13))
def test_q_ratios_built_one_from_the_next_equal_q_ratio(d):
    qs = q_ratios(d, 250)
    assert len(qs) == 250
    assert all(q == q_ratio(d, k) for k, q in enumerate(qs, 1))


def test_q_ratios_domain():
    assert q_ratios(2, 0) == []
    with pytest.raises(ValueError):
        q_ratios(1, 5)


def test_q_ratio_recursion_identity():
    k = 5
    expected = F(4 * (k + 4) * (2 * k + 7) * (2 * k + 8),
                 (3 * k + 7) * (3 * k + 8) * (3 * k + 9))
    assert q_ratio(2, k + 1) / q_ratio(2, k) == expected


def test_q_first_crossings():
    assert min(k for k in range(1, 30) if q_ratio(2, k) < 1) == 11
    assert min(k for k in range(1, 30) if q_ratio(3, k) < 1) == 4


def test_q_strictly_decreasing():
    assert all(q_ratio(2, k + 1) < q_ratio(2, k) for k in range(4, 101))
    assert all(q_ratio(3, k + 1) < q_ratio(3, k) for k in range(2, 101))


def test_q_domain():
    with pytest.raises(ValueError):
        q_ratio(1, 5)
    with pytest.raises(ValueError):
        q_ratio(2, 0)


def test_exact_ratio_bound_values():
    assert exact_ratio_bound(3, 2) == 1
    assert exact_ratio_bound(1, 1) == F(3, 2)
    # pure rational at (3, 3); 0.897003...
    assert exact_ratio_bound(3, 3) == F(29393, 32768)
    assert exact_ratio_bound(3, 3).to_decimal(8) == "0.89700317"
    assert exact_ratio_bound(3, 3) < 1


def _log_kappa(n):
    return n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1)


@pytest.mark.parametrize("d", range(1, 9))
def test_exact_ratio_bound_is_ball_of_halfball_volume(d):
    # Base-center moment over the free moment in the ball of volume kappa_d/2
    # (r^d = 1/2 scales the k-th moment by 2^-k), against the four-kappa form,
    # and that form evaluated independently through lgamma.
    for k in range(1, 9):
        bound = exact_ratio_bound(d, k)
        assert bound == ratio_bound_by_kappas(d, k)
        log_ref = (k * math.log(2) + _log_kappa(d) - _log_kappa(d + k)
                   + _log_kappa((d + 1) * (d + k)) - _log_kappa(d * (d + k + 1)))
        assert bound.to_float() == pytest.approx(math.exp(log_ref), rel=1e-12)


def test_exact_ratio_bound_domain():
    with pytest.raises(ValueError):
        exact_ratio_bound(3, 0)
    with pytest.raises(ValueError):
        exact_ratio_bound(0, 1)


# ---------------------------------------------------------------------------
# tetrahedron constant


def test_tetrahedron_moment_structure():
    v = tetrahedron_moment_k1()
    assert v.half_powers() == [0, 4]
    assert v.coefficient(0) == F(13, 720)
    assert v.coefficient(4) == F(-1, 15015)
    assert v.to_decimal(4) == "0.01739"
    assert v.to_decimal(4).startswith("0.0173")
    assert v == F(13, 720) - pi_power(4) / 15015


# ---------------------------------------------------------------------------
# planar counterexample reports


def test_plane_report_triangle_range():
    r = plane_counterexample_report(4)
    assert r.family == "triangle"
    assert r.counterexample
    assert r.triangle_ratio == F(13, 24)


def test_plane_report_no_counterexample():
    r2 = plane_counterexample_report(2)
    assert not r2.counterexample
    assert r2.family == "none"
    assert r2.triangle_ratio == 1
    r1 = plane_counterexample_report(1)
    assert not r1.counterexample
    assert r1.triangle_ratio == F(10, 9)


def test_plane_report_halfdisk_range():
    r = plane_counterexample_report(11)
    assert r.family == "halfdisk"
    assert r.counterexample
    assert r.q2 is not None and r.q2 < 1
    r25 = plane_counterexample_report(25)
    assert r25.family == "halfdisk" and r25.q2 < 1


def test_plane_report_json_round_trip():
    import json

    data = plane_counterexample_report(7).to_json_dict()
    assert json.loads(json.dumps(data)) == data
    assert data["family"] == "triangle"


# ---------------------------------------------------------------------------
# query validation and dispatch


def test_moment_query_validation():
    MomentQuery(d=2, k=3, body_kind="triangle", fixed_kind="edge_midpoint")
    with pytest.raises(ValueError):
        MomentQuery(d=3, k=1, body_kind="triangle")
    with pytest.raises(ValueError):
        MomentQuery(d=2, k=1, body_kind="interval")
    with pytest.raises(ValueError):
        MomentQuery(d=3, k=1, body_kind="ball", fixed_kind="edge_midpoint")
    with pytest.raises(ValueError):
        MomentQuery(d=3, k=1, body_kind="tetrahedron", fixed_kind="origin")
    with pytest.raises(ValueError):
        MomentQuery(d=0, k=1, body_kind="ball")
    with pytest.raises(ValueError):
        MomentQuery(d=2, k=-1, body_kind="ball")
    with pytest.raises(ValueError):
        MomentQuery(d=2, k=1, body_kind="cube")


def test_exact_moment_dispatch():
    assert exact_moment(MomentQuery(1, 2, "interval", l=1)) == F(1, 6)
    assert exact_moment(MomentQuery(3, 1, "ball")) == ball_moment(3, 1)
    assert exact_moment(MomentQuery(3, 1, "ball", "origin")) == ball_fixed_moment(3, 1)
    assert exact_moment(MomentQuery(3, 2, "halfball", "origin")) == ball_fixed_moment(3, 2)
    assert exact_moment(MomentQuery(2, 4, "triangle")) == F(1, 900)
    assert exact_moment(MomentQuery(2, 4, "triangle", "edge_midpoint")) == F(13, 21600)
    assert exact_moment(MomentQuery(3, 1, "tetrahedron")) == tetrahedron_moment_k1()


def test_exact_moment_rejects_a_closed_form_above_the_size_limit():
    assert MAX_CLOSED_FORM_SIZE == 2000
    check_closed_form_size(3, 662)  # 3 * 666 = 1998
    check_closed_form_size(1, 1998, F(3, 2))  # one 64-bit word: 1 * 2000
    with pytest.raises(ValueError, match="size 2001, above the limit 2000"):
        check_closed_form_size(3, 663)
    with pytest.raises(ValueError, match="size 3003, above the limit 2000"):
        check_closed_form_size(1, 1, F(1, 2**64000))  # 64001 bits: 1001 words, times 3
    assert exact_moment(MomentQuery(1, 1, "interval", l=F(1, 2**1000))) == F(1, 3 * 2**1000)
    with pytest.raises(ValueError, match="above the limit 2000"):
        exact_moment(MomentQuery(3, 100_000, "ball"))
    with pytest.raises(ValueError, match="above the limit 2000"):
        exact_moment(MomentQuery(1, 100, "interval", l=F(3, 2) ** 1000))  # 102 * 25 words


# ---------------------------------------------------------------------------
# second moments from the centroid and the covariance


def _pi(q):
    return PiPolynomial.from_rational(q)


@pytest.mark.parametrize("d", range(1, 13))
def test_bordered_det_second_moment_equals_the_ball_forms(d):
    mu, cov = ball_centroid_covariance(d)
    assert _pi(second_moment_by_bordered_det(mu, cov)) == ball_moment(d, 2)
    assert _pi(second_moment_by_bordered_det(mu, cov, [0] * d)) == ball_fixed_moment(d, 2)
    if d % 2:  # the half-ball's centroid is rational in odd d
        mu, cov = halfball_centroid_covariance(d)
        assert _pi(second_moment_by_bordered_det(mu, cov, [0] * d)) == halfball_fixed_moment(d, 2)
        assert _pi(second_moment_by_bordered_det(mu, cov)) == exact_moment(
            MomentQuery(d, 2, "halfball"))


@pytest.mark.parametrize("l", [F(1), F(3, 7), F(5, 2)])
def test_bordered_det_second_moment_equals_the_interval_form(l):
    assert _pi(second_moment_by_bordered_det([l / 2], [[l * l / 12]])) == interval_moment(2, l)


def test_bordered_det_second_moment_equals_the_simplex_forms():
    # the reference simplex has volume 1/d!: scale to unit volume by (d!)^2
    mu, cov = reference_simplex_centroid_covariance(2)
    triangle = F(2) ** 2 * second_moment_by_bordered_det(mu, cov)
    midpoint = F(2) ** 2 * second_moment_by_bordered_det(mu, cov, [F(1, 2)] * 2)
    assert _pi(triangle) == triangle_moment(2) == PiPolynomial.from_rational(F(1, 72))
    assert _pi(midpoint) == triangle_midpoint_moment(2)
    mu, cov = reference_simplex_centroid_covariance(3)
    assert _pi(F(6) ** 2 * second_moment_by_bordered_det(mu, cov)) == exact_moment(
        MomentQuery(3, 2, "tetrahedron"))
    assert _pi(F(6) ** 2 * second_moment_by_bordered_det(mu, cov, [F(1, 3)] * 3)) == exact_moment(
        MomentQuery(3, 2, "tetrahedron", "facet_centroid"))


def test_every_support_row_has_a_second_moment_from_its_covariance():
    for (body, fixed), row in SUPPORT.items():
        for d in ([row.d] if row.d is not None else range(1, 13)):
            assert row.exact_at(d, 2)
            l = F(3, 7) if body == "interval" else None
            value = exact_moment(MomentQuery(d, 2, body, fixed, l))
            assert second_moment(d, row.covariance(d, l)) == value, (body, fixed, d)


def test_each_body_and_fixed_kind_has_one_sampler():
    # every kind the support table names has a sampler, and no other; every
    # supported pair's query builds a body in its own dimension, with the
    # fixed vertex in it
    from sylvester.moments import _BODIES, _FIXED, BODY_KINDS, FIXED_KINDS

    assert set(_BODIES) == set(BODY_KINDS) and set(_FIXED) == set(FIXED_KINDS)
    for (body_kind, fixed_kind), row in SUPPORT.items():
        for d in ([row.d] if row.d is not None else range(1, 7)):
            body, fixed = MomentQuery(d, 1, body_kind, fixed_kind).sampler()
            assert body.dimension == d, (body_kind, fixed_kind, d)
            if fixed_kind != "none":
                assert len(fixed.coords) == d and body.contains(fixed.array())
    assert MomentQuery(1, 1, "interval", l=F(3, 7)).sampler()[0].length == 3 / 7


def test_the_permutation_expansion_equals_the_closed_forms_at_k4():
    # E det^4 row by row, on each body's monomial moments, against every
    # form that holds at k = 4 (the unit interval is the 1-simplex)
    for d in (1, 2, 3, 4):
        assert volume_moment_by_permutations("ball", d) == ball_moment(d, 4)
        assert volume_moment_by_permutations("ball", d, [0] * d) == ball_fixed_moment(d, 4)
        assert volume_moment_by_permutations("halfball", d, [0] * d) == halfball_fixed_moment(d, 4)
    assert volume_moment_by_permutations("simplex", 1) == interval_moment(4, 1)
    assert volume_moment_by_permutations("simplex", 2) == triangle_moment(4)
    assert volume_moment_by_permutations("simplex", 2, [F(1, 2)] * 2) == triangle_midpoint_moment(4)
    # and with two permutations, the k = 2 forms from the covariance
    for d in (2, 3, 4):
        assert volume_moment_by_permutations("halfball", d, power=2) == exact_moment(
            MomentQuery(d, 2, "halfball"))
    assert volume_moment_by_permutations("simplex", 3, [F(1, 3)] * 3, power=2) == exact_moment(
        MomentQuery(3, 2, "tetrahedron", "facet_centroid"))


def test_the_permutation_expansion_proves_the_fourth_moment_constants():
    assert exact_moment(MomentQuery(3, 4, "halfball")) == volume_moment_by_permutations(
        "halfball", 3) == _pi(F(9827, 702464000))
    d4 = exact_moment(MomentQuery(4, 4, "halfball"))
    assert d4 == volume_moment_by_permutations("halfball", 4)
    assert d4 == _pi(F(475, 3057647616)) - PI ** -2 * F(83, 54867456) + PI ** -4 * F(64, 43758225)
    assert d4.to_decimal(6) == "0.0000000170907"  # truncated: 1.709078e-8
    assert exact_moment(MomentQuery(3, 4, "tetrahedron")) == volume_moment_by_permutations(
        "simplex", 3) == _pi(F(871, 123480000))
    assert exact_moment(MomentQuery(3, 4, "tetrahedron", "facet_centroid")) == (
        volume_moment_by_permutations("simplex", 3, [F(1, 3)] * 3)) == _pi(F(43, 27783000))
    # the half-ball's limit is per d: k = 4 at d = 3 and 4 only
    row = SUPPORT["halfball", "none"]
    assert [d for d in range(1, 9) if row.exact_at(d, 4)] == [3, 4]
    assert row.describe() == "any d, exact k=2, and k=4 at d=3,4 only"
    for d in (2, 5):
        with pytest.raises(UnsupportedQueryError):
            exact_moment(MomentQuery(d, 4, "halfball"))
    # the half-ball's k = 4 ratio: the base-centre moment is below the free one
    ratio = halfball_fixed_moment(3, 4) / exact_moment(MomentQuery(3, 4, "halfball"))
    assert ratio == _pi(F(1, 154350) / F(9827, 702464000)) and ratio < exact_ratio_bound(3, 4)


def test_new_exact_second_moments():
    assert exact_moment(MomentQuery(3, 2, "halfball")) == _pi(F(19, 12000))
    assert exact_moment(MomentQuery(3, 2, "tetrahedron")) == _pi(F(3, 4000))
    assert exact_moment(MomentQuery(3, 2, "tetrahedron", "facet_centroid")) == _pi(F(1, 2000))
    d4 = exact_moment(MomentQuery(4, 2, "halfball"))
    assert d4 == PiPolynomial({0: F(5, 31104), -4: F(-4, 3645)})
    assert d4.to_decimal(4) == "0.00004956"
    # in even d the half-ball's centroid has a factor 1/pi: check it by quadrature
    for d in (2, 4, 6):
        mu_1 = halfball_first_coordinate_mean(d)
        want = (d + 1) / math.factorial(d) / (d + 2) ** (d - 1) * (1 / (d + 2) - mu_1**2)
        assert exact_moment(MomentQuery(d, 2, "halfball")).to_float() == pytest.approx(
            want, rel=1e-10)
    # so at k = 2 the pinned moment is below the free one: 16/19 and 2/3
    assert (halfball_fixed_moment(3, 2) / exact_moment(MomentQuery(3, 2, "halfball"))
            == _pi(F(16, 19)))
    assert (exact_moment(MomentQuery(3, 2, "tetrahedron", "facet_centroid"))
            / exact_moment(MomentQuery(3, 2, "tetrahedron")) == _pi(F(2, 3)))


def test_exact_moment_unsupported():
    with pytest.raises(UnsupportedQueryError):
        exact_moment(MomentQuery(3, 1, "halfball"))
    with pytest.raises(UnsupportedQueryError):
        exact_moment(MomentQuery(3, 3, "tetrahedron"))
    with pytest.raises(UnsupportedQueryError):
        exact_moment(MomentQuery(3, 1, "tetrahedron", "facet_centroid"))


def test_scale_to_volume():
    # reference right triangle of area 1/2: moments shrink by 2^-k
    unit = triangle_midpoint_moment(3)
    assert scale_to_volume(unit, F(1, 2), 3) == unit * F(1, 8)
    assert scale_to_volume(PI, 2, 2) == PI * 4
    with pytest.raises(ValueError):
        scale_to_volume(unit, 0, 1)
