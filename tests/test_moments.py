import math
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from sylvester.exactnum import PI, PiPolynomial, pi_power
from sylvester.moments import (
    MAX_CLOSED_FORM_SIZE,
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
    scale_to_volume,
    table1_rows,
    tetrahedron_moment_k1,
    midpoint_moment_from_cutoff_integrals,
    triangle_midpoint_moment,
    triangle_moment,
    tx_over_t_ratio,
)

from oracles import (
    ball_moments_by_kappa_omega,
    i0_quadrature,
    i12_quadrature,
    interval_moment_quadrature,
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
    # (r^d = 1/2 scales the k-th moment by 2^-k), evaluated independently
    # through lgamma.
    for k in range(1, 9):
        bound = exact_ratio_bound(d, k)
        assert bound == 2**k * ball_fixed_moment(d, k) / ball_moment(d, k)
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


def test_exact_moment_unsupported():
    with pytest.raises(UnsupportedQueryError):
        exact_moment(MomentQuery(3, 1, "halfball"))
    with pytest.raises(UnsupportedQueryError):
        exact_moment(MomentQuery(3, 2, "tetrahedron"))
    with pytest.raises(UnsupportedQueryError):
        exact_moment(MomentQuery(3, 1, "tetrahedron", "facet_centroid"))


def test_scale_to_volume():
    # reference right triangle of area 1/2: moments shrink by 2^-k
    unit = triangle_midpoint_moment(3)
    assert scale_to_volume(unit, F(1, 2), 3) == unit * F(1, 8)
    assert scale_to_volume(PI, 2, 2) == PI * 4
    with pytest.raises(ValueError):
        scale_to_volume(unit, 0, 1)
