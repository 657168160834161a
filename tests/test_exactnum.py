import functools
import json
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from sylvester.exactnum import (
    _atan_inv,
    _sqrt_pi,
    PI,
    SQRT_PI,
    PiPolynomial,
    PrecisionError,
    gamma_half,
    gamma_half_parts,
    kappa,
    omega,
    pi_power,
    to_decimal,
)
from sylvester.moments import ball_fixed_moment, ball_moment, tetrahedron_moment_k1

from oracles import gamma_half_by_recurrence

F = Fraction


# ---------------------------------------------------------------------------
# gamma at half-integers, kappa, omega


def test_gamma_half_basic_values():
    assert gamma_half(2) == PiPolynomial.one()
    assert gamma_half(1) == SQRT_PI
    assert gamma_half(7) == PiPolynomial({1: F(15, 8)})
    assert gamma_half(4) == PiPolynomial.one()
    assert gamma_half(6) == PiPolynomial.from_rational(2)


@pytest.mark.parametrize("two_n", range(1, 41))
def test_gamma_half_matches_recurrence_oracle(two_n):
    num, den, has_sqrt_pi = gamma_half_by_recurrence(two_n)
    expected = PiPolynomial({1 if has_sqrt_pi else 0: F(num, den)})
    assert gamma_half(two_n) == expected


def test_gamma_half_parts_are_the_recurrence_value_over_a_power_of_two():
    for two_n in range(1, 201):
        num, den, h = gamma_half_parts(two_n)
        r_num, r_den, r_h = gamma_half_by_recurrence(two_n)
        assert (F(num, den), h) == (F(r_num, r_den), r_h)
        assert den & (den - 1) == 0 and den.bit_length() - 1 == two_n // 2 * h
    with pytest.raises(ValueError):
        gamma_half_parts(0)


@pytest.mark.parametrize("two_n", range(1, 30))
def test_gamma_half_functional_equation(two_n):
    # Gamma(x + 1) = x * Gamma(x) with x = two_n / 2
    assert gamma_half(two_n + 2) == gamma_half(two_n) * F(two_n, 2)


def test_gamma_half_domain_error():
    with pytest.raises(ValueError):
        gamma_half(0)
    with pytest.raises(ValueError):
        gamma_half(-3)


def test_kappa_basic_values():
    assert kappa(1) == PiPolynomial.from_rational(2)
    assert kappa(2) == PI
    assert kappa(3) == PiPolynomial({2: F(4, 3)})
    assert kappa(4) == PiPolynomial({4: F(1, 2)})


def test_kappa_is_single_term():
    for d in range(1, 25):
        assert len(kappa(d).terms) == 1


def test_kappa_domain_error():
    with pytest.raises(ValueError):
        kappa(0)
    with pytest.raises(ValueError):
        omega(-1)


def test_omega_basic_values():
    assert omega(1) == PiPolynomial.from_rational(2)
    assert omega(2) == PiPolynomial({2: 2})
    assert omega(4) == PiPolynomial({4: 2})


@pytest.mark.parametrize("d", range(1, 61))
def test_omega_is_d_kappa(d):
    assert omega(d) == kappa(d) * d


@pytest.mark.parametrize("d", range(3, 61))
def test_kappa_two_step_recursion(d):
    # kappa(d) / kappa(d-2) = 2 pi / d, exactly in the ring
    assert kappa(d) / kappa(d - 2) == PiPolynomial({2: F(2, d)})


@pytest.mark.parametrize("d", range(2, 51))
def test_consecutive_kappa_ratio_sqrt_bounds(d):
    # sqrt(d / 2pi) <= kappa_{d-1} / kappa_d <= sqrt((d+1) / 2pi),
    # all three sides compared at >= 30 significant digits
    with mpmath.workdps(40):
        ratio = mpmath.mpf((kappa(d - 1) / kappa(d)).to_decimal(35))
        lower = mpmath.sqrt(d / (2 * mpmath.pi))
        upper = mpmath.sqrt((d + 1) / (2 * mpmath.pi))
        assert lower <= ratio <= upper


# ---------------------------------------------------------------------------
# decimal rendering


def test_to_decimal_pi_value():
    # 9 pi / 1024 = 0.02761165418...; digits are truncated, never rounded
    v = PiPolynomial({2: F(9, 1024)})
    assert v.to_decimal(6) == "0.0276116"
    assert v.to_decimal(10) == "0.02761165418"


def test_to_decimal_zero():
    assert PiPolynomial.zero().to_decimal(3) == "0.000"
    assert to_decimal(PiPolynomial.zero(), 1) == "0.0"


def test_to_decimal_two_term_value():
    v = PiPolynomial({0: F(13, 720), 4: F(-1, 15015)})
    assert v.to_decimal(4) == "0.01739"
    assert v.to_decimal(4).startswith("0.0173")
    assert v.to_decimal(6) == "0.0173982"


def test_to_decimal_rationals():
    assert PiPolynomial.from_rational(F(1, 3)).to_decimal(3) == "0.333"
    assert PiPolynomial.from_rational(F(2, 3)).to_decimal(3) == "0.666"
    assert PiPolynomial.from_rational(F(3, 2)).to_decimal(4) == "1.500"
    assert PiPolynomial.from_rational(F(-1, 8)).to_decimal(3) == "-0.125"
    assert PiPolynomial.from_rational(123456).to_decimal(3) == "123000"
    assert PiPolynomial.from_rational(F(1, 10**6)).to_decimal(2) == "0.0000010"


def test_to_decimal_negative_pi_multiple():
    assert (PI * F(-1, 100)).to_decimal(5) == "-0.031415"


def test_to_decimal_digit_validation():
    with pytest.raises(ValueError):
        PI.to_decimal(0)


def test_to_float_matches_float_pi():
    import math

    assert PI.to_float() == pytest.approx(math.pi, abs=1e-15)
    assert PiPolynomial.from_rational(F(1, 3)).to_float() == 1 / 3


# ---------------------------------------------------------------------------
# certified comparisons


def test_sign_basic():
    assert PiPolynomial.zero().sign() == 0
    assert PI.sign() == 1
    assert (-PI).sign() == -1
    assert (PI - 3).sign() == 1
    assert (PI - 4).sign() == -1


def test_sign_of_tight_difference():
    # pi - 355/113 = -2.66e-7: sign must be certified correct
    v = PI - F(355, 113)
    assert v.sign() == -1


def test_sign_escalates_past_default_precision():
    # a 70-digit truncation of pi sits below pi by ~1e-70, beyond the default
    # 50-digit comparison precision, so the certified sign needs escalation
    with mpmath.workdps(90):
        digits = mpmath.nstr(mpmath.pi, 71, strip_zeros=False)
    truncation = F(int(digits.replace(".", "")[:70]), 10**69)
    assert F(3) < truncation < F(4)
    assert (PI - truncation).sign() == 1
    assert (PiPolynomial.from_rational(truncation) - PI).sign() == -1


def test_comparison_operators():
    assert PI > 3
    assert PI < F(22, 7)
    assert kappa(3) > kappa(1)
    assert PI >= PI
    assert PI <= PI
    assert not PI > PI
    # an int or a Fraction on the left
    assert 3 < PI and 3 <= PI and not 3 > PI and not 3 >= PI
    assert F(22, 7) > PI and F(22, 7) >= PI and not F(22, 7) < PI and not F(22, 7) <= PI
    # the equal case, on a rational value and on an irrational one
    for x, same in ((PiPolynomial.from_rational(F(1, 2)), F(1, 2)), (kappa(2), PI)):
        assert x <= same and x >= same and not x > same and not x < same
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(PI, "3")


def test_equality_with_numbers():
    assert PiPolynomial.from_rational(F(1, 2)) == F(1, 2)
    assert PiPolynomial.from_rational(5) == 5
    assert hash(PiPolynomial.from_rational(F(1, 2))) == hash(F(1, 2))
    assert PI != 3


# ---------------------------------------------------------------------------
# ring structure (property tests)


def fractions(max_num=30, max_den=12):
    return st.builds(
        F,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def pi_polynomials():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=4), fractions(), max_size=4
    ).map(PiPolynomial)


@settings(max_examples=200, deadline=None)
@given(pi_polynomials(), pi_polynomials(), pi_polynomials())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + PiPolynomial.zero() == a
    assert a * PiPolynomial.one() == a
    assert (a - a).is_zero


@settings(max_examples=100, deadline=None)
@given(fractions())
def test_rational_round_trip(q):
    p = PiPolynomial.from_rational(q)
    assert p.is_rational
    assert p.to_rational() == q


@settings(max_examples=100, deadline=None)
@given(pi_polynomials(), st.integers(min_value=-3, max_value=3),
       fractions().filter(lambda q: q != 0))
def test_monomial_division_inverts_multiplication(a, h, c):
    m = PiPolynomial({h: c})
    assert (a * m) / m == a


@settings(max_examples=50, deadline=None)
@given(pi_polynomials(), st.integers(min_value=0, max_value=4))
def test_power_is_repeated_multiplication(a, n):
    expected = PiPolynomial.one()
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_division_by_multi_term_rejected():
    with pytest.raises(ValueError):
        PI / (PI + 1)
    with pytest.raises(ZeroDivisionError):
        PI / PiPolynomial.zero()


def test_pi_power_halves():
    assert pi_power(2) == PI
    assert pi_power(1) == SQRT_PI
    assert SQRT_PI * SQRT_PI == PI
    assert pi_power(-2) * PI == PiPolynomial.one()
    assert PI ** -1 == pi_power(-2)


def test_non_rational_conversion_fails():
    with pytest.raises(ValueError):
        PI.to_rational()


def test_immutability():
    with pytest.raises(AttributeError):
        PI.terms__ = {}
    t = PI.terms
    t[2] = F(99)
    assert PI == pi_power(2)


# ---------------------------------------------------------------------------
# serialization


def test_json_schema_sorted_and_stringly():
    v = PiPolynomial({4: F(-1, 15015), 0: F(13, 720)})
    data = v.to_json_dict()
    assert data == {
        "terms": [
            {"h": 0, "num": "13", "den": "720"},
            {"h": 4, "num": "-1", "den": "15015"},
        ]
    }
    assert json.loads(json.dumps(data)) == data


@settings(max_examples=100, deadline=None)
@given(pi_polynomials())
def test_json_round_trip(v):
    assert PiPolynomial.from_json_dict(v.to_json_dict()) == v


def test_str_rendering():
    assert str(PiPolynomial.zero()) == "0"
    assert str(PI) == "pi"
    assert str(PiPolynomial({2: F(9, 1024)})) == "9/1024*pi"
    assert str(PiPolynomial({0: F(13, 720), 4: F(-1, 15015)})) == "13/720 - 1/15015*pi^2"
    assert str(pi_power(3)) == "pi^(3/2)"


def _mpmath_enclosure(value, digits):
    """mpmath's interval enclosure of ``value`` at ``digits`` digits, as exact Fractions."""
    def exact(t):
        sign, man, exp, _ = t
        return (-1) ** sign * F(man) * F(2) ** exp

    iv = mpmath.iv
    saved = iv.prec
    try:
        iv.dps = digits
        root = iv.sqrt(iv.pi)
        total = iv.mpf(0)
        for h, c in value.terms.items():
            total += iv.mpf(c.numerator) / iv.mpf(c.denominator) * root**h
        a, b = total._mpi_
    finally:
        iv.prec = saved
    return exact(a), exact(b)


def test_interval_evaluation_encloses_truth():
    # pi^(h/2) for h in -12..12 and the tetrahedron moment (two terms of
    # opposite signs); mpmath's 100-digit enclosure is far narrower than ours
    # at 30 and 50 digits, so it must lie inside, and likewise at 220 for 200
    for value in [pi_power(h) for h in range(-12, 13)] + [tetrahedron_moment_k1()]:
        for digits, oracle_digits in [(30, 100), (50, 100), (200, 220)]:
            lo, hi = value.evaluate_interval(digits)
            true_lo, true_hi = _mpmath_enclosure(value, oracle_digits)
            assert lo <= true_lo <= true_hi <= hi
        if not value.is_rational:
            # enclosure width shrinks with precision: compare 200 digits with 30
            lo30, hi30 = value.evaluate_interval(30)
            assert lo30 < hi30 and hi - lo < hi30 - lo30


@functools.cache
def _ball_grid():
    return [v for d in range(1, 13) for k in range(1, 41)
            for v in (ball_moment(d, k), ball_fixed_moment(d, k)) if not v.is_rational]


@pytest.mark.parametrize("digits", [30, 50, 1000])
def test_interval_evaluation_on_the_ball_grid(digits):
    # each enclosure holds mpmath's, at 20 more digits, and is 10^-digits tight
    for value in _ball_grid():
        lo, hi = value.evaluate_interval(digits)
        true_lo, true_hi = _mpmath_enclosure(value, digits + 20)
        assert lo <= true_lo <= true_hi <= hi
        assert hi - lo <= abs(lo) / 10**digits


def test_atan_series_error_count():
    for x in (5, 239):
        for bits in (1, 8, 100, 1000):
            a, n = _atan_inv(x, 1 << bits)
            with mpmath.workprec(bits + 64):
                truth = mpmath.atan(mpmath.mpf(1) / x) * 2**bits
                assert abs(a - truth) < n - 1e-6


@pytest.mark.parametrize("bits", [1, 2, 10, 64, 200, 1000, 5000])
def test_sqrt_pi_enclosure(bits):
    s_lo, s_hi = _sqrt_pi(bits)
    assert s_hi - s_lo <= 3
    with mpmath.workprec(bits + 64):
        scaled = mpmath.sqrt(mpmath.pi) * 2**bits
        assert s_lo < scaled < s_hi


def test_to_decimal_of_rationals_longer_than_the_string_limit():
    # str() refuses integers of more than 4,300 digits; truncation needs none
    q = F(7 * 10**4999 + 1, 3)
    assert PiPolynomial.from_rational(q).to_decimal(12) == "233333333333" + "0" * 4988
    assert PiPolynomial.from_rational(1 / q).to_decimal(12) == "0." + "0" * 4999 + "428571428571"
