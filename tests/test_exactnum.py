import contextlib
import decimal
import functools
import json
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from sylvester.exactnum import (
    DEFAULT_COMPARISON_DIGITS,
    MAX_COMPARISON_DIGITS,
    _atan_inv,
    _scaled,
    _sqrt_pi,
    _term,
    _truncate_rational,
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


# ---------------------------------------------------------------------------
# decimal truncation, coefficient texts and the cached hash


def _truncated_by_decimal(q: F, digits: int) -> str:
    """The first ``digits`` significant digits of q, truncated toward zero, by
    the decimal module: its quotient is q rounded down to ``digits`` digits."""
    if q == 0:
        return "0." + "0" * digits
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_DOWN,
                          Emin=-10**6, Emax=10**6)
    quotient = ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    last = decimal.Decimal((0, (1,), quotient.adjusted() - digits + 1))
    return format(quotient.quantize(last, context=ctx), "f")


def _big_integers(max_digits=3000):
    # zero, small values, exact powers of ten and their neighbours, and
    # integers of up to thousands of digits
    powers = st.integers(min_value=0, max_value=max_digits).map(lambda e: 10**e)
    return st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        powers,
        powers.map(lambda p: p - 1),
        powers.map(lambda p: p + 1),
        st.integers(min_value=1, max_value=max_digits).flatmap(
            lambda n: st.integers(min_value=-(10**n), max_value=10**n)),
    )


@settings(max_examples=300, deadline=None)
@given(_big_integers(), _big_integers().filter(lambda d: d != 0),
       st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from([100, 500])))
def test_truncate_rational_matches_the_decimal_module(num, den, digits):
    q = F(num, den)
    assert _truncate_rational(q, digits) == _truncated_by_decimal(q, digits)


def test_truncate_rational_at_powers_of_ten_and_their_neighbours():
    for e in (-40, -3, -1, 0, 1, 2, 11, 12, 13, 40, 2500):
        for q in (F(10) ** e, F(10) ** e - F(1, 10**50), F(10) ** e + F(1, 10**50)):
            for digits in (1, 2, 12, 30):
                for signed in (q, -q):
                    assert (_truncate_rational(signed, digits)
                            == _truncated_by_decimal(signed, digits))


def _str_by_fractions(value: PiPolynomial) -> str:
    """str() as it reads from the Fractions themselves."""
    parts = []
    for h, c in value:
        coef = abs(c)
        if h == 0:
            mag = str(coef)
        else:
            p = "pi" if h == 2 else f"pi^{h // 2}" if h % 2 == 0 else f"pi^({h}/2)"
            mag = p if coef == 1 else f"{coef}*{p}"
        if not parts:
            parts.append(mag if c > 0 else f"-{mag}")
        else:
            parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
    return " ".join(parts) or "0"


def _json_by_fractions(value: PiPolynomial) -> dict:
    return {"terms": [{"h": h, "num": str(c.numerator), "den": str(c.denominator)}
                      for h, c in value]}


@pytest.mark.parametrize("value", [
    PiPolynomial.zero(),
    PiPolynomial.one(),
    PiPolynomial.from_rational(-1),
    PiPolynomial({2: -1}),
    PiPolynomial({0: F(-7, 3), 1: 1, 2: -1, 3: F(5, 2), -4: F(-1, 9), 6: 12}),
    tetrahedron_moment_k1(),
    ball_moment(7, 9),
    -ball_fixed_moment(4, 3),
])
def test_json_and_str_share_one_text_per_coefficient(value):
    exact = value.to_json_dict()
    texts = value._coefficient_texts()
    assert value._coefficient_texts() is texts  # kept on the value
    assert exact == _json_by_fractions(value)
    assert str(value) == _str_by_fractions(value)
    assert value._coefficient_texts() is texts
    # every call still returns a fresh dict
    exact["terms"].append({"h": 99, "num": "1", "den": "1"})
    assert value.to_json_dict() == _json_by_fractions(value)


@settings(max_examples=200, deadline=None)
@given(pi_polynomials())
def test_json_and_str_match_the_fractions(value):
    # str first here, so each order of first use is covered
    assert str(value) == _str_by_fractions(value)
    assert value.to_json_dict() == _json_by_fractions(value)


@settings(max_examples=200, deadline=None)
@given(pi_polynomials())
def test_cached_hash_is_the_formula(value):
    if value.is_rational:
        expected = hash(value.to_rational())
    else:
        expected = hash(tuple(sorted(value.terms.items())))
    assert hash(value) == expected
    assert hash(value) == expected  # served from the slot the first call set


def test_hash_of_equal_values_built_different_ways():
    assert hash(PiPolynomial.from_rational(F(3, 4))) == hash(F(3, 4))
    assert hash(PiPolynomial.from_rational(5)) == hash(5)
    assert hash(PiPolynomial.zero()) == hash(0)
    assert hash(SQRT_PI * SQRT_PI) == hash(PI) == hash(PiPolynomial({2: F(2, 2)}))
    built = PiPolynomial({0: F(1, 2), 4: 3}) - PiPolynomial({0: F(1, 2)})
    assert built == pi_power(4) * 3 and hash(built) == hash(pi_power(4) * 3)
    assert hash(gamma_half(7)) == hash(PiPolynomial({1: F(15, 8)}))


def test_cached_slots_keep_the_value_immutable():
    value = PiPolynomial({0: F(1, 3), 1: 2})
    hash(value), str(value)
    for name in ("_terms", "_hash", "_texts"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)


def test_gamma_half_parts_are_cached():
    assert gamma_half_parts(301) is gamma_half_parts(301)


# ---------------------------------------------------------------------------
# enclosures built from their integer ends, against the Fraction formula


def _enclosure_by_fractions(value: PiPolynomial, digits: int) -> tuple[F, F]:
    """evaluate_interval's ends as the integer sums at scale 2^-shift times
    the Fraction 2^-shift, term by term as evaluate_interval builds them."""
    terms = value.terms
    if not terms:
        return F(0), F(0)
    work = digits * 10 // 3 + 20
    bits = work + max(map(abs, terms)).bit_length() + 4
    s_lo, s_hi = _sqrt_pi(bits)
    lows, highs = [], []
    for h, c in terms.items():
        rising = (c > 0) == (h > 0)
        lows.append(_term(c, h, s_lo if rising else s_hi, bits))
        highs.append(_term(c, h, s_hi if rising else s_lo, bits))
    shift = work - max(n.bit_length() - d.bit_length() for n, d in lows)
    unit = F(2) ** -shift
    return (sum(_scaled(n, d, shift, False) for n, d in lows) * unit,
            sum(_scaled(n, d, shift, True) for n, d in highs) * unit)


def _sign_by_fractions(value: PiPolynomial) -> tuple[int, list[int]]:
    """PiPolynomial.sign on those ends, with the precisions it tried."""
    if value.is_zero or value.is_rational:
        q = value.coefficient(0)
        return (q > 0) - (q < 0), []
    steps, digits = [], DEFAULT_COMPARISON_DIGITS
    while True:
        steps.append(digits)
        lo, hi = _enclosure_by_fractions(value, digits)
        if lo > 0:
            return 1, steps
        if hi < 0:
            return -1, steps
        assert digits < MAX_COMPARISON_DIGITS
        digits = min(2 * digits, MAX_COMPARISON_DIGITS)


def _decimal_by_fractions(value: PiPolynomial, digits: int) -> tuple[str, list[int]]:
    """PiPolynomial.to_decimal on those ends, with the precisions it tried."""
    if value.is_zero or value.is_rational:
        return _truncate_rational(value.coefficient(0), digits), []
    steps, prec = [], max(digits + 10, DEFAULT_COMPARISON_DIGITS)
    while True:
        steps.append(prec)
        lo, hi = _enclosure_by_fractions(value, prec)
        if (lo > 0) == (hi > 0) and lo != 0 and hi != 0:
            s_lo, s_hi = _truncate_rational(lo, digits), _truncate_rational(hi, digits)
            if s_lo == s_hi:
                return s_lo, steps
        assert prec < MAX_COMPARISON_DIGITS + digits
        prec = 2 * prec


@contextlib.contextmanager
def _precisions_tried():
    steps = []
    evaluate = PiPolynomial.evaluate_interval

    def recorded(self, digits):
        steps.append(digits)
        return evaluate(self, digits)

    PiPolynomial.evaluate_interval = recorded
    try:
        yield steps
    finally:
        PiPolynomial.evaluate_interval = evaluate


def _wide_pi_polynomials():
    # mixed signs, h in -8..8, coefficients of up to thousands of digits
    coefficients = st.builds(F, _big_integers(2000), _big_integers(2000).filter(bool))
    return st.dictionaries(st.integers(min_value=-8, max_value=8), coefficients,
                           max_size=5).map(PiPolynomial)


def _near_zero(value: PiPolynomial, places: int) -> PiPolynomial:
    """value less a truncated decimal of itself: a sign or a decimal of the
    difference needs about ``places`` digits more than the value's terms."""
    if value.is_zero or value.is_rational:
        return value
    return value - F(value.to_decimal(places))


@settings(max_examples=300, deadline=None)
@given(_wide_pi_polynomials(), st.integers(min_value=1, max_value=200))
def test_enclosure_ends_equal_the_fraction_formula(value, digits):
    assert value.evaluate_interval(digits) == _enclosure_by_fractions(value, digits)


def test_enclosure_ends_at_both_signs_of_the_shift():
    # a term of 600 bits at 1 digit is scaled down (shift < 0); 1/3 is scaled up
    for value, whole in ((PiPolynomial({1: 2**600 + 1, -3: -7}), True),
                         (PiPolynomial({1: F(1, 3)}), False)):
        for digits in (1, 200):
            lo, hi = value.evaluate_interval(digits)
            assert (lo, hi) == _enclosure_by_fractions(value, digits)
        lo, hi = value.evaluate_interval(1)
        assert (lo.denominator == hi.denominator == 1) is whole


@settings(max_examples=150, deadline=None)
@given(_wide_pi_polynomials(), st.one_of(st.just(None), st.integers(min_value=30, max_value=300)),
       st.integers(min_value=1, max_value=200))
def test_sign_and_decimal_equal_the_fraction_formula(value, places, digits):
    if places is not None:
        value = _near_zero(value, places)
    with _precisions_tried() as steps:
        sign = value.sign()
    assert (sign, steps) == _sign_by_fractions(value)
    with _precisions_tried() as steps:
        text = value.to_decimal(digits)
    assert (text, steps) == _decimal_by_fractions(value, digits)


def test_sign_and_decimal_escalate_as_the_fraction_formula_does():
    value = _near_zero(PiPolynomial({1: F(-22, 7), 3: 5, -2: F(1, 10**40)}), 120)
    with _precisions_tried() as steps:
        sign = value.sign()
    assert (sign, steps) == _sign_by_fractions(value) and len(steps) > 1
    with _precisions_tried() as steps:
        text = value.to_decimal(30)
    assert (text, steps) == _decimal_by_fractions(value, 30) and len(steps) > 1
