"""Growth schedule, enumeration of Z^d, and the sparse label set."""

import math
from fractions import Fraction

import mpmath
import pytest

from qpsl.diophantine import (frequency_vector, golden_mean, mpf_to_fraction,
                              sqrt2_minus_1, sup_norm)
from qpsl.errors import PrecisionExhausted, QpslError, ScheduleTooShort
from qpsl.label_set import (
    LabelEntry,
    LabelSet,
    build_schedule,
    construct_label_set,
    ell_star,
    lex_enumerate,
    verify_label_set,
)

GOLDEN = golden_mean(2700)


def _alpha1(gamma=0.2, tau=2.0):
    return frequency_vector(GOLDEN, gamma=gamma, tau=tau)


def _alpha2():
    return frequency_vector((GOLDEN, sqrt2_minus_1(2700)), gamma=0.1, tau=2.0)


def test_lex_enumerate_d3_pattern():
    out = lex_enumerate(3, 9)
    assert out[0] == (0, 0, 0)
    assert out[1] == (-1, 0, 0)
    assert out[2] == (0, -1, 0)
    assert out[3] == (0, 0, -1)
    assert out[4] == (1, 0, 0)  # index d+1
    assert out[5] == (0, 1, 0)


def test_lex_enumerate_d1():
    assert lex_enumerate(1, 7) == [(0,), (-1,), (1,), (-2,), (2,), (-3,), (3,)]


def test_lex_enumerate_norm_bound():
    for d in (1, 2, 3):
        out = lex_enumerate(d, 60)
        for m, n in enumerate(out):
            assert sup_norm(n) <= m


def test_ell_star_example():
    # gamma=1, tau=1, s=0.9, k=10, ||A||=1/2: the e^k term dominates
    val = ell_star(k=10, gamma=1.0, tau=1.0, s=0.9, a_norm=0.5)
    with mpmath.workdps(30):
        terms = [
            (2 * 0.5) ** 2.5,
            (2 * 10 / 5) ** (1 / 0.9),
            float(mpmath.e ** 10),
            (5 * 2) ** ((1 / 1.0) / (3 - 2 * 0.9 - 0.81)),
        ]
    assert val == pytest.approx(max(terms), rel=1e-12)
    assert val == pytest.approx(22026.4657948, rel=1e-9)


def test_ell_star_monotone_in_k():
    vals = [ell_star(k=k, gamma=1.0, tau=1.0, s=0.9, a_norm=0.5) for k in (1, 2, 5, 10, 20)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ell_star_small_k_dominated_by_fourth_term():
    val = ell_star(k=1e-9, gamma=0.01, tau=1.0, s=0.9, a_norm=0.5)
    fourth = (5 * 2 / 0.01) ** ((1 / 1.0) / (3 - 1.8 - 0.81))
    assert val == pytest.approx(fourth, rel=1e-9)


def test_build_schedule_levels():
    sched = build_schedule(1000, 0.9, depth=3)
    assert sched.level_float(0) == pytest.approx(1000.0)
    assert sched.level_float(1) == pytest.approx(1000.0 ** 1.9, rel=1e-12)
    assert sched.check_ratio_identity()


def _oracle_level(sched, j):
    """ell_j as an exact Fraction of its value at 100 more digits than the
    schedule gives it."""
    digits = int((1 + sched.s) ** j * math.log10(sched.M))
    with mpmath.workdps(max(50, digits + 30) + 100):
        return mpf_to_fraction(mpmath.power(sched.M, mpmath.power(1 + sched.s, j)))


def test_levels_agree_with_extra_precision():
    sched = build_schedule(100, 0.9, depth=10)
    for j in range(sched.depth + 1):
        ref = _oracle_level(sched, j)
        err = abs(mpf_to_fraction(sched.level(j)) - ref)
        # relative agreement, and an absolute margin far below the unit
        # gap between the integer labels compared with the level
        assert err <= Fraction(1, 10 ** 30) * ref, j
        assert err <= Fraction(1, 10 ** 25), j


def test_level_float_and_ratio_identity_match_full_precision():
    # levels just below and just above 1e300 (10^299.99985 and 10^300.49),
    # where level_float computes the level, and levels of 340 to 645 digits,
    # which it decides from the log10 estimate; the ratio identity at its
    # reduced precision returns what it returns on levels at their own
    # precision
    def full_float(sched, j):
        v = sched.level(j)
        return float(v) if v < mpmath.mpf(10) ** 300 else math.inf

    def full_ratio_identity(sched, rtol):
        for j in range(sched.depth):
            a = sched.level(j + 1)
            with mpmath.workdps(sched._level_dps(j + 1)):
                if abs(a - mpmath.power(sched.level(j), 1 + sched.s)) > rtol * abs(a):
                    return False
        return True

    for M, s, depth in ((1e150, 0.999999, 2), (1e151, 0.99, 2), (100, 0.9, 9),
                        (10, 0.9, 6), (1e250, 0.5, 2)):
        sched = build_schedule(M, s, depth=depth)
        assert sched.levels() == [full_float(sched, j) for j in range(depth + 1)]
        for rtol in (1e-12, 1e-30):
            assert sched.check_ratio_identity(rtol) is full_ratio_identity(sched, rtol)
    below, above = build_schedule(1e150, 0.999999, 1), build_schedule(1e151, 0.99, 1)
    assert math.isfinite(below.level_float(1)) and above.level_float(1) == math.inf
    deep = build_schedule(100, 0.9, depth=16)
    assert deep.levels()[8:] == [math.inf] * 9
    assert deep.check_ratio_identity()


def test_label_level_boundaries_match_oracle():
    # single labels on each side of ell_0 = 100, of 21/10 ell_0 = 210 (an
    # exact tie), of ell_1 = 100^1.9 and of ell_2, planted at levels 0, 1, 2;
    # the oracle decides each window and annulus exactly on levels computed
    # at 100 extra digits
    sched = build_schedule(100, 0.9, depth=6)
    ell = [_oracle_level(sched, j) for j in range(5)]
    assert ell[0] == 100
    planted = [99, 100, 101, 209, 210, 211]
    planted += [math.floor(ell[j]) + k for j in (1, 2) for k in (-1, 0, 1, 2)]
    # the oracle's own error (below 10^-100) cannot flip a verdict: apart
    # from the exact ties at 100 and 210 no label lies within 10^-30 of a bound
    for n in planted:
        for b in ell + [Fraction(21, 10) * x for x in ell]:
            assert n == b or abs(n - b) > Fraction(1, 10 ** 30), n

    verdicts = set()
    for n in planted:
        for level in (0, 1, 2):
            rep = verify_label_set(LabelSet.from_labels([(n,)], _alpha1(), levels=[level]),
                                   sched)
            window = ell[level] <= n < Fraction(21, 10) * ell[level]
            annulus = not any(Fraction(21, 10) * ell[j] <= n < ell[j + 1]
                              for j in range(min(level + 2, sched.depth)))
            assert (rep.window_ok, rep.annulus_ok) == (window, annulus), (n, level)
            verdicts.add((window, annulus))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_build_schedule_s_zero_constant():
    sched = build_schedule(50, 0.0, depth=4)
    assert sched.levels() == pytest.approx([50.0] * 5)
    assert "s = 0.0 outside (4/5, 1)" in sched.relaxations


def test_build_schedule_relaxations_read_the_same_for_int_and_float():
    # one schedule, one text: build-set passes floats, a JSON config ints
    as_int, as_float = build_schedule(10, 0, depth=3), build_schedule(10.0, 0.0, depth=3)
    assert as_int.relaxations == as_float.relaxations == ("M = 10.0 <= 1000",
                                                          "s = 0.0 outside (4/5, 1)")


def test_build_schedule_strict_rejects_small_M():
    with pytest.raises(QpslError):
        build_schedule(10, 0.9, depth=3, strict=True)


def test_construct_strict_refuses_a_first_level_below_ell_star():
    # ell_1 = 2000^1.9 = 1.87e6 clears ell_star = 1e3, not 1e30
    alpha = _alpha1()
    ok = build_schedule(2000, 0.9, depth=3, ell_star_value=1e3, strict=True)
    assert construct_label_set(alpha, ok, j1=1, spacing=2, count=1).labels() == [(2692538,)]
    short = build_schedule(2000, 0.9, depth=3, ell_star_value=1e30, strict=True)
    with pytest.raises(QpslError, match=r"^strict mode: ell_\(j1\) = 1\.87e\+06 below "
                                        r"ell_star = 1e\+30$"):
        construct_label_set(alpha, short, j1=1, spacing=2, count=1)


def test_construct_names_the_digits_a_short_declared_alpha_needs():
    # level 6 of (10, 0.9) is ell ~ 1e47, out of reach of 20 declared digits
    alpha = frequency_vector(golden_mean(20), gamma=0.2, tau=2.0)
    sched = build_schedule(10, 0.9, depth=6)
    with pytest.raises(PrecisionExhausted, match=r"; reaching level 6 \(ell ~ 1e47\) needs the "
                                                 r"first frequency component declared to "
                                                 r"about 114 digits$") as info:
        construct_label_set(alpha, sched, j1=2, spacing=2, count=3)
    assert (info.value.reason, info.value.level) == ("ambiguous", 47)
    assert isinstance(info.value.__cause__, PrecisionExhausted)


def test_construct_label_set_first_entry_golden():
    # relaxed schedule starting at ell = 100: first label is the shifted zero vector
    alpha = _alpha1()
    sched = build_schedule(100, 0.9, depth=10)
    ks = construct_label_set(alpha, sched, j1=0, spacing=2, count=2)
    e0 = ks.entries[0]
    assert e0.base == (0,)
    assert e0.shift == 178
    assert e0.label == (178,)
    assert 100 <= e0.norm() < 210
    # second entry shifts the level-2 denominator by -1
    e1 = ks.entries[1]
    assert e1.base == (-1,)
    assert e1.label == (e1.shift - 1,)
    lo = sched.level_float(2)
    assert lo <= e1.norm() < 2.1 * lo


def test_constructed_set_verifies_d1():
    alpha = _alpha1()
    sched = build_schedule(100, 0.9, depth=12)
    ks = construct_label_set(alpha, sched, j1=0, spacing=2, count=5)
    rep = verify_label_set(ks, sched, density_targets=[0.1, 0.25], density_tol=0.5)
    assert rep.sparsity_ok and rep.annulus_ok and rep.spacing_ok and rep.window_ok
    assert rep.passed


def test_constructed_set_verifies_d2():
    alpha = _alpha2()
    sched = build_schedule(100, 0.9, depth=12)
    ks = construct_label_set(alpha, sched, j1=0, spacing=2, count=5)
    assert ks.d == 2
    assert ks.entries[1].base == (-1, 0)
    assert ks.entries[2].base == (0, -1)
    rep = verify_label_set(ks, sched)
    assert rep.passed


def test_density_monotone_in_count():
    alpha = _alpha1()
    sched = build_schedule(100, 0.9, depth=16)
    targets = [i / 20 for i in range(20)]
    prev = None
    for count in (2, 4, 6):
        ks = construct_label_set(alpha, sched, j1=0, spacing=2, count=count)
        rep = verify_label_set(ks, sched, density_targets=targets, density_tol=1.0)
        best = [b for (_, b, _) in rep.density]
        if prev is not None:
            assert all(b <= p + 1e-15 for b, p in zip(best, prev))
        prev = best


def test_density_singleton_exact_target():
    alpha = _alpha1()
    ks = LabelSet.from_labels([(5,)], alpha)
    sched = build_schedule(2, 0.0, depth=8)
    target = float(alpha.exact_pairing((5,)) / 2 % 1)
    rep = verify_label_set(ks, sched, density_targets=[target], density_tol=1e-9)
    assert rep.density[0][1] == pytest.approx(0.0, abs=1e-15)


def test_spacing_violation_detected():
    alpha = _alpha1()
    entries = [LabelEntry(m=0, base=(0,), shift=178, label=(178,), level=0),
               LabelEntry(m=1, base=(-1,), shift=178, label=(177,), level=1)]
    ks = LabelSet(d=1, entries=entries, frequency=alpha)
    sched = build_schedule(100, 0.9, depth=6)
    rep = verify_label_set(ks, sched)
    assert not rep.spacing_ok
    assert any(v[0] == "spacing" for v in rep.violations)
    assert not rep.passed


def test_sparsity_violation_detected():
    alpha = _alpha1()
    entries = [LabelEntry(m=0, base=(0,), shift=178, label=(178,), level=0),
               LabelEntry(m=1, base=(0,), shift=180, label=(180,), level=2)]
    ks = LabelSet(d=1, entries=entries, frequency=alpha)
    sched = build_schedule(100, 0.9, depth=6)
    rep = verify_label_set(ks, sched)
    assert not rep.sparsity_ok


def test_schedule_too_short():
    alpha = _alpha1()
    sched = build_schedule(100, 0.9, depth=3)
    with pytest.raises(ScheduleTooShort):
        construct_label_set(alpha, sched, j1=0, spacing=2, count=4)


def test_construction_deterministic():
    alpha = _alpha1()
    sched = build_schedule(100, 0.9, depth=10)
    a = construct_label_set(alpha, sched, j1=0, spacing=2, count=3)
    b = construct_label_set(alpha, sched, j1=0, spacing=2, count=3)
    assert a.labels() == b.labels()
    assert [e.shift for e in a.entries] == [e.shift for e in b.entries]


def test_label_set_json_roundtrip():
    alpha = _alpha1()
    sched = build_schedule(100, 0.9, depth=10)
    ks = construct_label_set(alpha, sched, j1=0, spacing=2, count=3)
    text = ks.to_json()
    back = LabelSet.from_json(text)
    assert back.d == ks.d
    assert back.labels() == ks.labels()
    assert [e.level for e in back.entries] == [e.level for e in ks.entries]
