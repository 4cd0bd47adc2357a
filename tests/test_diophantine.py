"""Continued fractions, distance to integers, Diophantine checks."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from qpsl.diophantine import (
    cf_expand,
    dc_check,
    dist_to_integers,
    frequency_vector,
    golden_mean,
    resonant_denominator,
    sqrt2_minus_1,
)
from qpsl.errors import ExpansionTooShallow, NotInUnitInterval, PrecisionExhausted

GOLDEN = golden_mean(60)


def test_golden_mean_partial_quotients():
    cf = cf_expand(GOLDEN, depth=8)
    assert cf.partial_quotients == (1,) * 8
    assert cf.q[:8] == (1, 1, 2, 3, 5, 8, 13, 21)
    assert cf.p[:8] == (0, 1, 1, 2, 3, 5, 8, 13)


def test_golden_mean_first_ten_denominators():
    cf = cf_expand(GOLDEN, depth=10)
    assert cf.q == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_sqrt2_expansion_against_minimization_oracle():
    # a_k = 2 for sqrt(2)-1; denominators by recurrence
    cf = cf_expand(sqrt2_minus_1(60), depth=5)
    assert cf.partial_quotients == (2, 2, 2, 2, 2)
    assert cf.q == (1, 2, 5, 12, 29)
    # best-approximation oracle: ||q_{k-1} alpha|| minimizes ||m alpha|| over m < q_k
    with mpmath.workdps(60):
        alpha = mpmath.sqrt(2) - 1
        for k in range(1, len(cf.q)):
            best = min(float(min(mpmath.frac(m * alpha), 1 - mpmath.frac(m * alpha)))
                       for m in range(1, cf.q[k]))
            d = float(min(mpmath.frac(cf.q[k - 1] * alpha), 1 - mpmath.frac(cf.q[k - 1] * alpha)))
            assert d <= best + 1e-50


def test_two_sided_inequality_all_levels():
    cf = cf_expand(GOLDEN, depth=12)
    for k in range(len(cf.q) - 1):
        d = cf.approx_error(k)
        assert Fraction(1, cf.q[k] + cf.q[k + 1]) < d <= Fraction(1, cf.q[k + 1])
    # paired error and R/Z distance agree from k = 1 on
    for k in range(1, len(cf.q)):
        assert cf.approx_error(k) == dist_to_integers(cf.q[k] * cf.alpha)


def test_convergent_recurrences_and_determinant():
    cf = cf_expand(GOLDEN, depth=10)
    a, p, q = cf.partial_quotients, cf.p, cf.q
    for k in range(2, len(q)):
        assert q[k] == a[k - 1] * q[k - 1] + q[k - 2]
        assert p[k] == a[k - 1] * p[k - 1] + p[k - 2]
    for k in range(1, len(q)):
        assert p[k] * q[k - 1] - p[k - 1] * q[k] == (-1) ** (k - 1)


def test_best_approximation_property_exhaustive():
    cf = cf_expand(GOLDEN, depth=20)
    alpha = cf.alpha
    # for 1 <= m < q_k, ||m alpha|| >= ||q_{k-1} alpha||, spot-checked for q_k <= 1e4
    for k in range(2, len(cf.q)):
        if cf.q[k] > 10_000:
            break
        dk = dist_to_integers(cf.q[k - 1] * alpha)
        worst = min(dist_to_integers(m * alpha) for m in range(1, cf.q[k]))
        assert worst >= dk


def test_not_in_unit_interval():
    with pytest.raises(NotInUnitInterval):
        cf_expand(1.5, depth=3)
    with pytest.raises(NotInUnitInterval):
        cf_expand("0.0", depth=3)


def test_declared_interval_of_each_input_type():
    # an int is exact, and never inside (0, 1)
    with pytest.raises(NotInUnitInterval):
        cf_expand(1, depth=3)
    # an mpf is declared to two units of the last place at the working precision
    with mpmath.workdps(30):
        cf = cf_expand((mpmath.sqrt(5) - 1) / 2, depth=20)
        assert cf.alpha_hi - cf.alpha_lo == Fraction(1, 2 ** (mpmath.mp.prec - 2))
    assert cf.partial_quotients == (1,) * 20
    # a ratio string is exact; an exponent moves the declared decimal places
    with pytest.raises(PrecisionExhausted) as ei:
        cf_expand("3/7", depth=10)
    assert ei.value.reason == "rational"
    cf = cf_expand("6.180339887e-1", depth=5)
    assert cf.alpha_hi - cf.alpha_lo == Fraction(1, 10 ** 10)
    with pytest.raises(TypeError, match="unsupported frequency type"):
        cf_expand([0.5], depth=3)


def test_precision_exhausted_ambiguous():
    with pytest.raises(PrecisionExhausted) as ei:
        cf_expand("0.618", depth=12)
    assert ei.value.reason == "ambiguous"


def test_precision_exhausted_rational():
    with pytest.raises(PrecisionExhausted) as ei:
        cf_expand(Fraction(3, 7), depth=10)
    assert ei.value.reason == "rational"


def test_dist_to_integers_trivial():
    assert dist_to_integers(0.0) == 0.0
    assert dist_to_integers(3.25) == 0.25
    assert dist_to_integers(-0.4) == pytest.approx(0.4)
    assert dist_to_integers(Fraction(7, 3)) == Fraction(1, 3)


def test_dist_to_integers_high_precision_oracle():
    with mpmath.workdps(60):
        expected = float(mpmath.frac(178 * (mpmath.sqrt(5) - 1) / 2))
        expected = min(expected, 1 - expected)
    got = dist_to_integers(178 * Fraction(GOLDEN))
    assert abs(float(got) - expected) < 1e-12
    assert abs(float(got) - 0.01005) < 1e-4


def test_dc_check_golden_holds():
    alpha = frequency_vector(GOLDEN, gamma=0.2, tau=2.0)
    rep = dc_check(alpha, max_norm=50)
    assert rep.holds
    # independent exhaustive oracle at high precision
    with mpmath.workdps(60):
        a = (mpmath.sqrt(5) - 1) / 2
        for n in range(1, 51):
            d = float(min(mpmath.frac(n * a), 1 - mpmath.frac(n * a)))
            assert d >= 0.2 / n ** 2


def test_dc_check_golden_fails_strict_budget():
    alpha = frequency_vector(GOLDEN, gamma=1.0, tau=1.0)
    rep = dc_check(alpha, max_norm=10)
    assert not rep.holds
    n = rep.worst_n
    assert rep.worst_value < 1.0 / max(abs(n[0]), 1)


def test_dc_check_symmetric_under_negation():
    alpha = frequency_vector(GOLDEN, gamma=0.2, tau=2.0)
    rep = dc_check(alpha, max_norm=20)
    n = rep.worst_n
    neg = tuple(-c for c in n)
    v_pos = dist_to_integers(sum(ni * float(ci) for ni, ci in zip(n, alpha.components)))
    v_neg = dist_to_integers(sum(ni * float(ci) for ni, ci in zip(neg, alpha.components)))
    assert v_pos == pytest.approx(v_neg, abs=1e-12)


def test_resonant_denominator_golden_100():
    cf = cf_expand(GOLDEN, depth=30)
    res = resonant_denominator(cf, 100)
    assert res.q_nj == 89
    assert res.q == 178
    assert 105 <= res.q <= 205
    assert res.dist < 3 / 89
    assert abs(res.dist - 0.01005) < 1e-4


def test_resonant_denominator_golden_10():
    cf = cf_expand(GOLDEN, depth=30)
    res = resonant_denominator(cf, 10)
    assert res.q_nj == 8
    assert res.q == 16
    assert res.dist < 3 / 8


def test_resonant_denominator_random_ell_with_exhaustive_oracle():
    cf = cf_expand(GOLDEN, depth=40)
    rng = random.Random(7)
    for _ in range(25):
        ell = rng.randint(20, 100_000)
        res = resonant_denominator(cf, ell)
        lo, hi = 21 * ell / 20, 41 * ell / 20
        assert lo <= res.q <= hi
        assert res.q % res.q_nj == 0
        assert res.dist < 3 / res.q_nj
        # independent scan: the returned q appears among window integers
        # that are multiples of q_nj and meet the distance bound
        qual = [m for m in range(math.ceil(lo), math.floor(hi) + 1)
                if m % res.q_nj == 0
                and dist_to_integers(m * cf.alpha) < Fraction(3, res.q_nj)]
        assert res.q in qual


def test_resonant_denominator_too_shallow():
    cf = cf_expand(GOLDEN, depth=8)
    with pytest.raises(ExpansionTooShallow):
        resonant_denominator(cf, 10_000)


def test_frequency_vector_rejects_rational():
    with pytest.raises(Exception):
        frequency_vector(Fraction(1, 3))
