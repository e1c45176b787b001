import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dunklsphere import (
    DEFAULT_EPS,
    INDETERMINATE,
    NONZERO,
    ZERO,
    Function1D,
    c_lambda,
    coefficient_profile,
    gauss_jacobi_rule,
    gegenbauer_at_one,
    gegenbauer_coefficients,
    gegenbauer_eval,
    lambda_coefficient,
    lp_norm_segment,
    parse_function,
    pochhammer,
    symmetric_jacobi_rule,
)
from dunklsphere import gegenbauer
from dunklsphere.gegenbauer import (
    _classify,
    _lambda_entries,
    _polynomial_coefficient,
    _structural_flag,
    jacobi_rule,
)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_pochhammer_exact():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(5, 2) == 30


def test_c2_closed_form():
    lam = Fraction(3, 2)
    coeffs = gegenbauer_coefficients(2, lam)
    # C_2 = 2 lam (lam + 1) t^2 - lam
    assert coeffs == [Fraction(-3, 2), Fraction(0), Fraction(15, 2)]


def test_value_at_one():
    for lam in (Fraction(1, 2), Fraction(2), Fraction(7, 2)):
        for n in range(8):
            v = gegenbauer_eval(n, lam, Fraction(1))
            assert v == gegenbauer_at_one(n, lam)
            assert gegenbauer_at_one(n, lam) == pochhammer(2 * lam, n) / math.factorial(n)
    # 200! overflows a double; C_200^{1/2}(1) = P_200(1) = 1 does not
    assert gegenbauer_at_one(200, 0.5) == 1.0


@given(st.integers(0, 12),
       st.floats(0.2, 4.0, allow_nan=False),
       st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_scipy_gegenbauer_oracle(n, lam, t):
    mine = gegenbauer_eval(n, lam, t)
    ref = special.eval_gegenbauer(n, lam, t)
    assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))


def test_coefficients_match_eval():
    lam = Fraction(5, 2)
    for n in range(7):
        coeffs = gegenbauer_coefficients(n, lam)
        t = Fraction(2, 7)
        horner = Fraction(0)
        for c in reversed(coeffs):
            horner = horner * t + c
        assert horner == gegenbauer_eval(n, lam, t)


def test_coefficients_match_eval_at_high_degree():
    # the explicit sum takes O(n) steps, so degree 1000 costs milliseconds
    lam, t = Fraction(7, 3), Fraction(2, 7)
    for n in (40, 41):
        horner = Fraction(0)
        for c in reversed(gegenbauer_coefficients(n, lam)):
            horner = horner * t + c
        assert horner == gegenbauer_eval(n, lam, t)
    assert len(gegenbauer_coefficients(1000, lam)) == 1001
    floats = gegenbauer_coefficients(9, 1.25)
    exact = gegenbauer_coefficients(9, Fraction(5, 4))
    assert all(abs(a - float(b)) <= 1e-12 * max(1.0, abs(float(b)))
               for a, b in zip(floats, exact))


def test_function_coefficients_are_the_polynomial_form():
    lam = Fraction(3, 2)
    poly = parse_function("poly 1,0,3/2")
    assert poly.coefficients == (1, 0, Fraction(3, 2)) and poly.poly_degree == 2
    gegen = Function1D.gegenbauer_poly(2, lam)
    assert gegen.coefficients == tuple(gegenbauer_coefficients(2, lam))
    total = parse_function("sum 2*poly 1,1 + 1/2*gegen 2", lam)
    assert total.coefficients == (2 - lam / 2, 2, lam * (lam + 1))
    assert total.poly_degree == 2
    # a sum keeps its largest part degree even when the top terms cancel
    cancel = parse_function("sum 1*poly 0,1 + -1*poly 0,1")
    assert cancel.coefficients == (0, 0) and cancel.poly_degree == 1
    for text in ("exp", "cos 2", "step 1/2", "sum 1*poly 1 + 1*exp"):
        assert parse_function(text).coefficients is None
        assert parse_function(text).poly_degree is None
    assert Function1D.from_callable(np.exp).coefficients is None
    # degree 1000 is read from its coefficients without a slow expansion
    assert Function1D.gegenbauer_poly(1000, lam).poly_degree == 1000


def test_eval_agrees_across_number_types():
    from mpmath import mp

    lam, t = Fraction(5, 2), Fraction(2, 7)
    for n in range(8):
        exact = gegenbauer_eval(n, lam, t)
        assert isinstance(exact, Fraction)
        want = float(exact)
        assert abs(gegenbauer_eval(n, lam, float(t)) - want) <= 1e-13 * max(1.0, abs(want))
        arr = gegenbauer_eval(n, lam, np.array([float(t), -float(t)]))
        assert np.allclose(arr, [want, (-1) ** n * want], rtol=1e-13, atol=0)
        with mp.workdps(40):
            got = gegenbauer_eval(n, mp.mpf(lam.numerator) / lam.denominator,
                                  mp.mpf(2) / 7)
            assert abs(got - mp.mpf(exact.numerator) / exact.denominator) <= mp.mpf(10) ** -35


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------

def test_c_lambda_reference_values():
    assert abs(c_lambda(0.5) - 0.5) < 1e-15
    assert abs(c_lambda(1.0) - 2.0 / math.pi) < 1e-15
    assert abs(c_lambda(1.5) - 0.75) < 1e-15
    assert abs(c_lambda(2.0) - 8.0 / (3.0 * math.pi)) < 1e-15


def test_c_lambda_normalizes_weight():
    for lam in (0.5, 1.0, 2.5):
        rule = gauss_jacobi_rule(40, lam)
        assert abs(c_lambda(lam) * rule.weights.sum() - 1.0) < 1e-13


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_jacobi_rule_against_scipy():
    for m, a, b in [(5, 0.0, 0.0), (8, 1.5, 0.5), (12, -0.5, -0.5),
                    (10, 2.0, 3.0)]:
        nodes, weights = jacobi_rule(m, a, b)
        ref_n, ref_w = special.roots_jacobi(m, a, b)
        assert np.allclose(nodes, ref_n, atol=1e-12)
        assert np.allclose(weights, ref_w, atol=1e-12)


def test_single_node_legendre():
    rule = gauss_jacobi_rule(1, 0.5)
    assert abs(rule.nodes[0]) < 1e-15
    assert abs(rule.weights[0] - 2.0) < 1e-14


@given(st.integers(0, 30), st.floats(0.3, 3.5, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_rule_exactness_beta_moments(k, lam):
    # int t^k (1 - t^2)^(lam - 1/2) dt = B((k+1)/2, lam + 1/2) for even k
    m = k // 2 + 2
    rule = gauss_jacobi_rule(m, lam)
    got = float(rule.weights @ rule.nodes ** k)
    if k % 2 == 1:
        assert abs(got) < 1e-12
    else:
        want = special.beta((k + 1) / 2.0, lam + 0.5)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


@given(st.integers(0, 20),
       st.floats(0.0, 4.0, allow_nan=False),
       st.floats(-0.45, 3.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_symmetric_rule_moments(k, b, c):
    # weight |u|^b (1 - u^2)^c on [-1, 1]
    m = k // 2 + 2
    nodes, weights = symmetric_jacobi_rule(m, b, c)
    got = float(weights @ nodes ** k)
    if k % 2 == 1:
        assert abs(got) < 1e-12
    else:
        want = special.beta((k + b + 1) / 2.0, c + 1.0)
        assert abs(got - want) <= 1e-11 * max(1.0, want)


def test_symmetric_rule_nodes_are_sign_paired():
    nodes, weights = symmetric_jacobi_rule(6, 2.0, 0.5)
    assert np.allclose(np.sort(nodes), np.sort(-nodes))
    assert nodes.size == 12


# ---------------------------------------------------------------------------
# Lambda coefficients
# ---------------------------------------------------------------------------

def test_lambda_1_of_t():
    # Lambda_1(t) = 1 / (2 (1 + lambda))
    g = Function1D.polynomial([0, 1])
    for lam in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2)):
        val, err = lambda_coefficient(g, 1, lam)
        want = 1.0 / (2.0 * (1.0 + float(lam)))
        assert abs(val - want) <= 1e-13
        assert err <= 1e-13


def test_lambda_of_own_gegenbauer():
    # Lambda_m(C_m) = lam / (m + lam)
    for lam in (Fraction(1, 2), Fraction(2)):
        for m in (1, 2, 4, 7):
            g = Function1D.gegenbauer_poly(m, lam)
            val, _ = lambda_coefficient(g, m, lam)
            want = float(lam) / (m + float(lam))
            assert abs(val - want) <= 1e-12


def test_lambda_orthogonality_cross_degrees():
    lam = Fraction(3, 2)
    g = Function1D.gegenbauer_poly(4, lam)
    for n in (0, 2, 6):
        assert lambda_coefficient(g, n, lam) == (0, 0)


def test_gegenbauer_at_another_lambda_is_not_orthogonal():
    # C_3^1 = 8t^3 - 4t against C_1^2 = 4t with the lambda = 2 moments
    # c int t^2 w = 1/6, c int t^4 w = 1/16: (32/16 - 16/6) / C_1^2(1) = -1/6
    g = Function1D.gegenbauer_poly(3, 1)
    prof = coefficient_profile(g, 2, 4)
    assert not prof.entry(1).structural
    assert prof.entry(1).flag == NONZERO
    assert prof.entry(1).value == -1 / 6
    assert lambda_coefficient(g, 1, 2)[0] == -1 / 6


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(7, 3)])
def test_bessel_kinds_match_scipy(lam):
    # exp = Gamma(lam+1) 2^lam I_{n+lam}(1), cosh/sinh its even/odd degrees;
    # cos w = Gamma(lam+1) 2^lam (-1)^(n/2) |w|^-lam J_{n+lam}(|w|) on even
    # degrees, and cos 0 is the constant 1
    lf = float(lam)
    front = special.gamma(lf + 1.0) * 2.0 ** lf

    def cos_truth(w):
        return lambda n: (front * (-1) ** (n // 2) * w ** -lf
                          * special.jv(n + lf, w) if n % 2 == 0 else 0.0)

    truths = {
        "exp": lambda n: front * special.iv(n + lf, 1.0),
        "cosh": lambda n: front * special.iv(n + lf, 1.0) if n % 2 == 0 else 0.0,
        "sinh": lambda n: front * special.iv(n + lf, 1.0) if n % 2 == 1 else 0.0,
        "cos 3": cos_truth(3.0),
        "cos -2": cos_truth(2.0),
        "cos 0": lambda n: float(n == 0),
    }
    for text, truth in truths.items():
        g = parse_function(text, lam)
        prof = coefficient_profile(g, lam, 14)
        for e in prof.entries:
            want = truth(e.n)
            assert abs(e.value - want) <= 1e-13 * abs(want), (text, e.n)
            assert e.flag == (NONZERO if want else ZERO), (text, e.n)
            assert lambda_coefficient(g, e.n, lam)[0] == e.value


def test_step_values_against_quadrature_truth():
    # truth: 60-digit tanh-sinh over [-1, a] and [a, 1] against the weight
    # (1-t^2)^(3/2), with C_n from its explicit sum; 1e-50 allows for the
    # truth's own quadrature error
    from mpmath import mp

    lam = 2
    with mp.workdps(60):
        half = mp.mpf(1) / 2
        c_lam = mp.gamma(lam + 1) / (mp.sqrt(mp.pi) * mp.gamma(lam + half))
        gegen = []
        for n in range(13):
            cf = [mp.zero] * (n + 1)
            for k in range(n // 2 + 1):
                cf[2 * k] = ((-1) ** k * mp.rf(lam, n - k) * 2 ** (n - 2 * k)
                             / (mp.factorial(k) * mp.factorial(n - 2 * k)))
            gegen.append(cf)                    # highest power first
        for k in range(-9, 10):
            a = mp.mpf(k) / 10
            prof = coefficient_profile(Function1D.step(Fraction(k, 10)), lam, 12)
            for e, cf in zip(prof.entries, gegen):
                raw = mp.quad(lambda t: (t >= a) * mp.polyval(cf, t)
                              * (1 - t * t) * mp.sqrt(1 - t * t), [-1, a, 1])
                truth = c_lam * raw / mp.polyval(cf, 1)
                err = abs(mp.mpf(e.value.real) - truth)
                assert err <= (e.error_bound + math.ulp(e.value.real) / 2
                               + mp.mpf(10) ** -50), (k, e.n)


def _closed_form_per_degree(g, lam, degrees, dps, eps=DEFAULT_EPS):
    """{n: (value, error_bound, flag)} from one special function or one exact
    Gegenbauer evaluation per degree and term: the oracle that _closed_form's
    per-profile tables must match bit for bit."""
    from mpmath import mp

    lam = Fraction(lam)
    parts = g.parts if g.kind == "sum" else ((1.0, g),)
    out = {}
    with mp.workdps(dps):
        def mpq(q):
            return mp.mpf(q.numerator) / q.denominator

        lam_mp = mpq(lam)
        half = lam_mp + mp.mpf(1) / 2
        front = mp.gamma(lam_mp + 1) * mp.power(2, lam_mp)
        c_lam = mp.gamma(lam_mp + 1) / (mp.sqrt(mp.pi) * mp.gamma(half))

        def term(f, n):
            k = f.kind
            if _structural_flag(f, n, lam):
                return mp.zero
            if k in ("poly", "gegenbauer"):
                return mpq(_polynomial_coefficient(f, n, lam))
            if k in ("exp", "cosh", "sinh"):
                return front * mp.besseli(n + lam_mp, 1)
            if k == "cos":
                w = mpq(abs(f.omega))
                if w == 0:
                    return mp.mpf(1 if n == 0 else 0)
                return (front * (-1) ** (n // 2) * mp.power(w, -lam_mp)
                        * mp.besselj(n + lam_mp, w))
            if n == 0:                                    # step
                return mp.betainc(half, half, mpq((1 + f.a) / 2), 1,
                                  regularized=True)
            return (c_lam * mpq(_step_ratio(n, lam, f.a))
                    * mp.power(mpq(1 - f.a * f.a), half))

        tol = mp.mpf(10) ** (5 - dps)
        for n in degrees:
            terms = [mp.mpf(w) * term(f, n) for w, f in parts]
            value = mp.fsum(terms)
            err = tol * mp.fsum(abs(x) for x in terms)
            out[n] = (complex(value), float(err), _classify(abs(value), err, mp.mpf(eps)))
    return out


@functools.lru_cache(maxsize=None)
def _step_ratio(n, lam, a):
    # exact, so the same at every precision: computed once per (n, lam, a)
    return (2 * lam * gegenbauer_eval(n - 1, lam + 1, a)
            / (n * (n + 2 * lam) * gegenbauer_at_one(n, lam)))


ORACLE_GENERATORS = ("exp", "cosh", "sinh", "step 0", "step 1/5", "step -1/2",
                     "step 3/4", "step -9/10", "cos 3", "cos 1/2",
                     "sum 1*exp + 1/2*step 1/5", "sum 1*cosh + -2*sinh + 1/3*cos 3",
                     "sum 1/2*cos 1/2 + 1*step -9/10 + 3*poly 1,0,1")


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5),
                                 Fraction(7, 2), Fraction(10)], ids=str)
def test_closed_form_tables_match_the_per_degree_oracle(lam):
    # the oracle's value at n does not depend on N, so one oracle run up to
    # N = 60 serves the profiles at N = 12, 40 and 60
    for text in ORACLE_GENERATORS:
        g = parse_function(text, lam)
        live = [n for n in range(61) if not _structural_flag(g, n, lam)]
        for precision in (6, 15, 50, 80):
            want = _closed_form_per_degree(g, lam, live, precision)
            for n_max in (12, 40, 60):
                entries, _, _ = _lambda_entries(g, lam, range(n_max + 1),
                                                DEFAULT_EPS, precision)
                for e in entries:
                    got = (repr(e.value), repr(e.error_bound), e.flag)
                    expect = ((repr(0j), repr(0.0), ZERO) if e.structural
                              else tuple(map(repr, want[e.n][:2])) + (want[e.n][2],))
                    assert got == expect, (text, precision, n_max, e.n)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(7, 3),
                                 Fraction(10)], ids=str)
def test_bessel_i_recurrence_against_direct_truth(lam):
    # truth: Gamma(lam + 1) 2^lam I_{n+lam}(1) from one direct besseli per
    # degree at 20 digits more than the profile
    from mpmath import mp

    for precision in (6, 15, 50, 80):
        with mp.workdps(precision + 20):
            lam_mp = mp.mpf(lam.numerator) / lam.denominator
            front = mp.gamma(lam_mp + 1) * mp.power(2, lam_mp)
            truth = [front * mp.besseli(n + lam_mp, 1) for n in range(61)]
            for text, live in (("exp", (0, 1)), ("cosh", (0,)), ("sinh", (1,))):
                prof = coefficient_profile(parse_function(text), lam, 60,
                                           precision=precision)
                for e in prof.entries:
                    want = truth[e.n] if e.n % 2 in live else 0
                    err = abs(mp.mpf(e.value.real) - want)
                    assert err <= e.error_bound + math.ulp(e.value.real) / 2, (
                        text, precision, e.n)


def test_bessel_and_step_work_is_per_profile(monkeypatch):
    from mpmath import mp

    calls = []
    besseli = mp.besseli
    monkeypatch.setattr(mp, "besseli",
                        lambda *a, **k: calls.append(a) or besseli(*a, **k))
    for text in ("exp", "cosh", "sinh"):
        calls.clear()
        coefficient_profile(parse_function(text), Fraction(2), 40)
        assert 1 <= len(calls) <= 2, text    # one per degree would be 41 for exp

    def no_eval(*args):
        raise AssertionError("gegenbauer_eval called per degree")

    monkeypatch.setattr(gegenbauer, "gegenbauer_eval", no_eval)
    prof = coefficient_profile(Function1D.step(Fraction(1, 5)), Fraction(2), 12)
    assert prof.nonzero_degrees()


# ---------------------------------------------------------------------------
# Function1D behavior
# ---------------------------------------------------------------------------

def test_parity_and_degree():
    assert Function1D.polynomial([1, 0, 3]).parity == "even"
    assert Function1D.polynomial([0, 1]).parity == "odd"
    assert Function1D.polynomial([1, 1]).parity is None
    assert Function1D.exponential().parity is None
    assert Function1D.cosh_fn().parity == "even"
    assert Function1D.sinh_fn().parity == "odd"
    assert Function1D.polynomial([1, 2, 3]).poly_degree == 2
    assert Function1D.gegenbauer_poly(5, 1.0).poly_degree == 5
    assert Function1D.exponential().poly_degree is None


def test_eval_kinds():
    t = np.linspace(-1, 1, 9)
    assert np.allclose(Function1D.exponential()(t), np.exp(t))
    assert np.allclose(Function1D.cosine(3.0)(t), np.cos(3.0 * t))
    assert np.allclose(Function1D.step(0.25)(t), (t >= 0.25).astype(float))
    p = Function1D.polynomial([1, -2, 3])
    assert np.allclose(p(t), 1 - 2 * t + 3 * t ** 2)
    s = Function1D.weighted_sum([(0.5, Function1D.exponential()),
                                 (2.0, p)])
    assert np.allclose(s(t), 0.5 * np.exp(t) + 2.0 * p(t))


def test_parse_round_trip():
    lam = Fraction(2)
    for text in ["poly 1,0,-2", "exp", "cosh", "sinh", "cos 2.5",
                 "step 0.1", "gegen 4", "sum 1.0*cosh + -1.0*sinh",
                 "step 1/3", "cos 2/3",
                 "sum 100000000000000000000*exp + 1*cosh"]:
        g = parse_function(text, lam)
        again = parse_function(g.describe(), lam)
        assert again == g
        t = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(g(t), again(t), rtol=1e-14)
    assert parse_function("step 1/3").describe() == "step 1/3"
    assert (parse_function("sum 1e20*exp + 0.1*cosh").describe()
            == "sum 100000000000000000000*exp + 1/10*cosh")


@pytest.mark.parametrize("text, spelled", [
    ("sum 1e+3*exp", "sum 1000*exp"),
    ("sum 1*poly 1,+2", "sum 1*poly 1,2"),
    ("sum 1*poly 1, +2 + 1E+1*step 1e-1", "sum 1*poly 1,2 + 10*step 1/10"),
    # a + with no space around it still ends a term
    ("sum 1/2*exp+1/2*cosh", "sum 1/2*exp + 1/2*cosh"),
])
def test_sum_splits_only_between_terms(text, spelled):
    # a + in an exponent or after a coefficient list's comma is a sign
    assert parse_function(text) == parse_function(spelled)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_function("spline 3", Fraction(1))
    with pytest.raises(ValueError):
        parse_function("gegen", Fraction(1))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_constant_generator():
    prof = coefficient_profile(Function1D.polynomial([1]), Fraction(2), 6)
    assert prof.entry(0).flag == NONZERO
    assert prof.zero_degrees() == [1, 2, 3, 4, 5, 6]
    assert all(prof.entry(n).structural for n in range(1, 7))


def test_profile_pure_gegenbauer():
    lam = Fraction(2)
    prof = coefficient_profile(Function1D.gegenbauer_poly(3, lam), lam, 8)
    assert prof.nonzero_degrees() == [3]
    assert set(prof.zero_degrees()) == {0, 1, 2, 4, 5, 6, 7, 8}


def test_profile_resolves_tiny_smooth_coefficients():
    # exp has no vanishing coefficients; n = 20 sits near 1e-27 and must
    # still come out nonzero from its 50-digit closed form
    prof = coefficient_profile(Function1D.exponential(), Fraction(2), 20)
    assert prof.indeterminate_degrees() == []
    assert prof.zero_degrees() == []


@pytest.mark.parametrize("text", ["exp", "step 1/5", "sum 1*exp + 1/2*step 1/5"])
def test_profile_closed_form_has_no_absolute_floor(text):
    # exp's Lambda_40 at lambda 2 is ~1e-63, far below 10^-dps, yet known to
    # ~45 relative digits: every I_{n+lambda}(1) > 0, so nothing is zero
    prof = coefficient_profile(parse_function(text), Fraction(2), 40)
    assert prof.zero_degrees() == []
    assert prof.indeterminate_degrees() == []


def test_profile_explicit_precision():
    prof = coefficient_profile(Function1D.exponential(), Fraction(2), 12,
                               eps=1e-40, precision=40)
    assert prof.zero_degrees() == []
    assert prof.precision == 40


@pytest.mark.parametrize("precision", [5, 0])
def test_profile_refuses_precision_below_six_digits(precision):
    # no closed form clears its bound 10^(5 - precision) sum|terms| there
    with pytest.raises(ValueError, match="precision"):
        coefficient_profile(parse_function("exp"), Fraction(2), 3,
                            precision=precision)


def test_profile_user_function_double_only():
    # a user callable has no closed form, so coefficients below the double
    # noise floor are certified only at the eps tolerance: they flag zero
    # (value and error both under eps), unlike the grammar exp generator
    g = Function1D.from_callable(np.exp, label="exp-blackbox")
    prof = coefficient_profile(g, Fraction(2), 20)
    assert 20 in prof.zero_degrees()
    assert prof.entry(20).error_bound <= 1e-9


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(5)])
def test_user_callable_error_bound_covers_closed_form(lam):
    # the spread of the two Gauss rules alone sits below the round-off of
    # the doubles summed; the bound must cover the 60-digit truth anyway
    user = Function1D.from_callable(np.exp)
    truth = coefficient_profile(Function1D.exponential(), lam, 40, precision=60)
    prof = coefficient_profile(user, lam, 40)
    for e, t in zip(prof.entries, truth.entries):
        assert abs(e.value - t.value) <= e.error_bound, (lam, e.n)
    # lambda_coefficient views the profile's route selector one degree at a
    # time: on every route (Gauss pair, closed form, structural zero) it
    # gives the profile entry to the last bit
    mixed = Function1D.weighted_sum([(0.5, user), (2.0, Function1D.cosh_fn())])
    for g, n_max in ((user, 40), (mixed, 12), (Function1D.cosh_fn(), 12),
                     (Function1D.gegenbauer_poly(3, lam), 6)):
        for e in coefficient_profile(g, lam, n_max).entries:
            assert lambda_coefficient(g, e.n, lam) == (e.value, e.error_bound), (
                g.describe(), lam, e.n)


def test_profile_noisy_function_indeterminate():
    # oscillatory contamination keeps the two quadrature rules apart, so the
    # error bound exceeds eps and the small coefficients cannot be classified
    rng_phase = 1e6

    def noisy(t):
        return np.exp(t) + 1e-5 * np.sin(rng_phase * np.asarray(t))

    g = Function1D.from_callable(noisy, label="noisy-exp")
    prof = coefficient_profile(g, Fraction(2), 20)
    assert len(prof.indeterminate_degrees()) > 0


def test_profile_serialization_shapes():
    prof = coefficient_profile(Function1D.polynomial([0, 1]), Fraction(1), 4)
    doc = prof.to_json_dict()
    json.dumps(doc)
    assert doc["schema_version"] == "2"
    assert len(doc["entries"]) == 5
    csv = prof.to_csv_text()
    assert csv.splitlines()[0] == "n,re,im,error_bound,flag"
    assert len(csv.splitlines()) == 6


def test_grammar_profile_builds_no_rule():
    # closed forms need no quadrature, not even for ||g||_1
    jacobi_rule.cache_clear()
    prof = coefficient_profile(parse_function("step 1/3"), Fraction(2), 12)
    assert jacobi_rule.cache_info().misses == 0
    assert prof.norm_g1 is None and prof.rule_size is None
    doc = prof.to_json_dict()
    assert doc["norm_g1"] is None and doc["rule_size"] is None
    user = coefficient_profile(Function1D.from_callable(np.exp), Fraction(2), 4)
    assert user.rule_size == 256
    assert abs(user.norm_g1 - lp_norm_segment(Function1D.exponential(), 1.0,
                                              Fraction(2))) <= 1e-14


def test_profile_deterministic():
    g = Function1D.exponential()
    a = coefficient_profile(g, Fraction(2), 10)
    b = coefficient_profile(g, Fraction(2), 10)
    assert a.entries == b.entries


# ---------------------------------------------------------------------------
# segment norms
# ---------------------------------------------------------------------------

def test_lp_norm_segment_constant():
    g = Function1D.polynomial([1])
    for p in (1.0, 2.0, 3.0):
        assert abs(lp_norm_segment(g, p, Fraction(2)) - 1.0) <= 1e-13


def test_norm_identity_spot():
    # c_lam int C_n^2 w dt = C_n(1) * lam / (n + lam)
    lam = 1.5
    n = 9
    rule = gauss_jacobi_rule(64, lam)
    vals = gegenbauer_eval(n, lam, rule.nodes)
    got = c_lambda(lam) * float(rule.weights @ vals ** 2)
    want = float(gegenbauer_at_one(n, Fraction(3, 2))) * lam / (n + lam)
    assert abs(got - want) <= 1e-12 * want
