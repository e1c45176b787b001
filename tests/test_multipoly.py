import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsphere import EXACT, FLOAT, MultiPoly, monomials_of_degree
from dunklsphere.multipoly import (
    DEGREE_CAP,
    DIVIDE_TOL,
    DegreeCapError,
    ModeError,
    NonDivisibleError,
    _divide_terms,
    _mul_terms,
    eval_rows,
)


def frac(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# construction and basics
# ---------------------------------------------------------------------------

def test_zero_and_constant():
    z = MultiPoly.zero(3, EXACT)
    assert z.is_zero() and z.degree() == -1
    c = MultiPoly.constant(3, frac(5, 2), EXACT)
    assert c.degree() == 0
    assert c.coefficient((0, 0, 0)) == frac(5, 2)


def test_variable_and_monomial():
    x1 = MultiPoly.variable(2, 0, EXACT)
    assert x1.coefficient((1, 0)) == 1
    m = MultiPoly.monomial(2, (2, 3), frac(1, 3), EXACT)
    assert m.degree() == 5


def test_exact_mode_rejects_floats():
    with pytest.raises(ModeError):
        MultiPoly.constant(2, 0.5, EXACT)


def test_float_mode_demotes_fractions():
    p = MultiPoly.constant(2, frac(1, 2), FLOAT)
    assert p.coefficient((0, 0)) == 0.5
    assert isinstance(p.coefficient((0, 0)), float)


def test_mixed_mode_arithmetic_errors():
    a = MultiPoly.variable(2, 0, EXACT)
    b = MultiPoly.variable(2, 0, FLOAT)
    with pytest.raises(ModeError):
        a + b
    with pytest.raises(ModeError):
        a * b


def test_immutability():
    p = MultiPoly.variable(2, 0, EXACT)
    with pytest.raises(AttributeError):
        p.dim = 5


def test_equality_without_hashing():
    # equal term dicts compare equal; polynomials are not hashable
    p = MultiPoly(2, {(1, 0): 1, (0, 2): Fraction(1, 2)})
    assert p == MultiPoly(2, {(0, 2): Fraction(1, 2), (1, 0): 1}) != p.to_float()
    with pytest.raises(TypeError):
        hash(p)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_ring_identities():
    x = MultiPoly.variable(2, 0, EXACT)
    y = MultiPoly.variable(2, 1, EXACT)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    assert (p - q).is_zero()


def test_scale_and_neg():
    x = MultiPoly.variable(2, 0, EXACT)
    assert x.scale(frac(-3)) == -(x + x + x)


def test_power_binomial():
    x = MultiPoly.variable(2, 0, EXACT)
    y = MultiPoly.variable(2, 1, EXACT)
    p = (x + y).power(4)
    assert p.coefficient((2, 2)) == 6
    assert p.coefficient((1, 3)) == 4
    assert p.degree() == 4


def test_power_zero_is_one():
    x = MultiPoly.variable(2, 0, EXACT)
    assert x.power(0) == MultiPoly.constant(2, 1, EXACT)


def test_degree_cap():
    x = MultiPoly.variable(1, 0, EXACT)
    with pytest.raises(DegreeCapError):
        x.power(100)


def test_mul_with_max_degree_guard():
    x = MultiPoly.variable(1, 0, EXACT)
    top = x.power(DEGREE_CAP)
    assert top.mul(MultiPoly.constant(1, 3, EXACT)).degree() == DEGREE_CAP
    with pytest.raises(DegreeCapError):
        top.mul(x)


def test_conjugate_complex():
    p = MultiPoly.constant(1, 1 + 2j, FLOAT)
    assert p.conjugate().coefficient((0,)) == 1 - 2j


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------

def test_partial_derivative():
    x = MultiPoly.variable(2, 0, EXACT)
    y = MultiPoly.variable(2, 1, EXACT)
    p = x.power(3) * y + y.power(2)
    dp = p.partial_derivative(0)
    assert dp == x.power(2) * y.scale(3)
    dq = p.partial_derivative(1)
    assert dq == x.power(3) + y.scale(2)


def test_substitute_linear_rotation():
    # p(x, y) = x^2 + y^2 is invariant under rotations
    x = MultiPoly.variable(2, 0, FLOAT)
    y = MultiPoly.variable(2, 1, FLOAT)
    p = x * x + y * y
    c, s = math.cos(0.7), math.sin(0.7)
    q = p.substitute_linear(((c, -s), (s, c)))
    pts = np.random.default_rng(0).standard_normal((20, 2))
    assert np.allclose(q.eval_many(pts), p.eval_many(pts), atol=1e-12)


def test_substitute_linear_exact_reflection():
    x = MultiPoly.variable(2, 0, EXACT)
    y = MultiPoly.variable(2, 1, EXACT)
    p = x.power(2) * y
    # negate the first coordinate
    q = p.substitute_linear(((frac(-1), frac(0)), (frac(0), frac(1))))
    assert q == p


# ---------------------------------------------------------------------------
# division by linear forms
# ---------------------------------------------------------------------------

def test_divide_simple_oracle():
    x = MultiPoly.variable(2, 0, EXACT)
    p = x.power(3).scale(2)
    q = p.divide_by_linear_form((frac(1), frac(0)))
    assert q == x.power(2).scale(2)


def test_divide_non_divisible_raises():
    y = MultiPoly.variable(2, 1, EXACT)
    with pytest.raises(NonDivisibleError):
        y.divide_by_linear_form((frac(1), frac(0)))


def test_divide_times_form_recovers():
    x = MultiPoly.variable(3, 0, EXACT)
    y = MultiPoly.variable(3, 1, EXACT)
    z = MultiPoly.variable(3, 2, EXACT)
    form = x - y + z.scale(frac(2))
    p = form * (x * y + z.power(2) - MultiPoly.constant(3, frac(1, 7), EXACT))
    q = p.divide_by_linear_form((frac(1), frac(-1), frac(2)))
    assert q * form == p


def _divide_terms_by_slices(terms, v, pivot, tol=None):
    """The quotient of terms by <v, x> with the remainder kept in one dict
    per x_pivot exponent: the former layout of _divide_terms, kept as the
    oracle of its key order and values."""
    vp = v[pivot]
    form = [(j, vj) for j, vj in enumerate(v) if vj != 0]
    slices = {}
    for e, c in terms.items():
        slices.setdefault(e[pivot], {})[e] = c
    quot = {}
    for k in range(max(slices, default=0), 0, -1):
        here, below = slices.get(k, {}), slices.setdefault(k - 1, {})
        for e, c in list(here.items()):
            t = c if vp == 1 else c / vp
            qe = e[:pivot] + (k - 1,) + e[pivot + 1:]
            if t != 0:
                quot[qe] = t
            for j, vj in form:
                into = here if j == pivot else below
                ne = qe[:j] + (qe[j] + 1,) + qe[j + 1:]
                s = into.get(ne, 0) - t * vj
                if s == 0:
                    into.pop(ne, None)
                else:
                    into[ne] = s
    rem = [c for part in slices.values() for c in part.values()]
    if rem:
        if tol is None:
            raise NonDivisibleError("polynomial is not divisible by the form")
        scale = max(1.0, max(abs(c) for c in terms.values()))
        worst = max(abs(c) for c in rem)
        if worst > tol * scale:
            raise NonDivisibleError(
                f"remainder {worst:.3e} exceeds tolerance {tol:.3e} (scaled)")
    return quot


def _outcome(divide, terms, v, pivot, tol):
    try:
        return "quotient", list(divide(terms, v, pivot, tol).items())
    except NonDivisibleError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "complex"])
def test_divide_terms_matches_the_sliced_oracle(kind):
    rng = random.Random(f"divide-{kind}")
    scalar = {
        "int": lambda: rng.randint(-4, 4),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        "float": lambda: rng.uniform(-2, 2),
        "complex": lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    }[kind]
    tol = None if kind in ("int", "fraction") else DIVIDE_TOL
    outcomes = set()
    for _ in range(150):
        d = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 7)):
            c = scalar()
            if c != 0:
                terms[tuple(rng.randint(0, 4) for _ in range(d))] = c
        v = [scalar() if rng.random() < 0.7 else 0 for _ in range(d)]
        v[rng.randrange(d)] = 1 if rng.random() < 0.3 else scalar() or 1
        form = {tuple(int(i == j) for i in range(d)): vj
                for j, vj in enumerate(v) if vj != 0}
        for dividend in (terms, _mul_terms(terms, form)):
            for pivot in (j for j, vj in enumerate(v) if vj != 0):
                want = _outcome(_divide_terms_by_slices, dividend, v, pivot, tol)
                assert _outcome(_divide_terms, dividend, v, pivot, tol) == want
                outcomes.add(want[0])
    assert outcomes == {"quotient", "error"}


@st.composite
def exact_polys(draw, dim=2, max_terms=5, max_deg=4):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(dim))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    p = MultiPoly.zero(dim, EXACT)
    for exps, c in terms.items():
        if c:
            p = p + MultiPoly.monomial(dim, exps, c, EXACT)
    return p


@given(exact_polys())
@settings(max_examples=60, deadline=None)
def test_reflection_difference_divisible(p):
    # f - f o s_v is always divisible by <v, x>; here v = e1 - e2
    s = ((frac(0), frac(1)), (frac(1), frac(0)))  # swap coordinates
    diff = p - p.substitute_linear(s)
    q = diff.divide_by_linear_form((frac(1), frac(-1)))
    form = (MultiPoly.variable(2, 0, EXACT) - MultiPoly.variable(2, 1, EXACT))
    assert q * form == diff


def _eval_term_by_term(p, pts):
    """Reference evaluation: no chunks, and each term takes its own powers,
    x^e being the running product ((x * x) * x) ... of e factors."""
    dtype = complex if any(isinstance(c, complex) for c in p.terms.values()) else float
    ref = np.zeros(pts.shape[0], dtype=dtype)
    for exps, c in p.terms.items():
        v = np.full(pts.shape[0], c if isinstance(c, complex) else float(c), dtype=dtype)
        for i, e in enumerate(exps):
            if e:
                power = pts[:, i]
                for _ in range(e - 1):
                    power = power * pts[:, i]
                v = v * power
        ref += v
    return ref


@pytest.mark.parametrize("mode,coeff", [
    (FLOAT, lambda k: (-1.5) ** k / (k + 1)),
    (EXACT, lambda k: Fraction((-3) ** k, 7 * k + 2)),
    (FLOAT, lambda k: complex(1.0 / (k + 1), (-1) ** k * 0.25 * k) if k % 3 else 0.5 * k),
])
def test_eval_many_chunks_match_per_term_reference(mode, coeff):
    # 40,003 points span two chunk boundaries; shared powers and chunking
    # must not move a single bit against evaluating term by term
    terms = {exps: coeff(k) for k, exps in enumerate(
        e for deg in range(7) for e in monomials_of_degree(3, deg))}
    p = MultiPoly(3, terms, mode)
    pts = np.random.default_rng(3).uniform(-1.2, 1.2, size=(40_003, 3))
    ref = _eval_term_by_term(p, pts)
    got = p.eval_many(pts)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_eval_rows_match_per_term_reference():
    # the even and odd polynomials have disjoint exponent sets, so the power
    # table of a chunk is their union; 40,003 points span two chunk
    # boundaries, and no row may move a bit against its own reference
    def degrees(*ns):
        return enumerate(e for n in ns for e in monomials_of_degree(3, n))

    even = MultiPoly(3, {e: (-1.5) ** k / (k + 1) for k, e in degrees(0, 2, 4, 6)}, FLOAT)
    odd = MultiPoly(3, {e: Fraction((-3) ** k, 7 * k + 2) for k, e in degrees(1, 3, 5, 7)},
                    EXACT)
    cplx = MultiPoly(3, {(0, 0, 9): 1 + 2j, (2, 1, 0): -0.5, (0, 8, 1): 0.25j}, FLOAT)
    assert not set(even.terms) & set(odd.terms)
    pts = np.random.default_rng(5).uniform(-1.2, 1.2, size=(40_003, 3))

    rows = eval_rows([even, odd], pts)
    assert rows.dtype == float and rows.shape == (2, 40_003)
    for row, p in zip(rows, (even, odd)):
        assert row.tobytes() == _eval_term_by_term(p, pts).tobytes()

    # one complex polynomial makes the array complex; the float rows keep
    # their float values in the real part
    rows = eval_rows([even, cplx, odd], pts)
    assert rows.dtype == complex
    assert rows[1].tobytes() == _eval_term_by_term(cplx, pts).tobytes()
    for row, p in ((rows[0], even), (rows[2], odd)):
        assert row.real.tobytes() == _eval_term_by_term(p, pts).tobytes()
        assert not row.imag.any()


def test_eval_rows_within_a_stated_bound_of_exact_values():
    # Truth: each polynomial summed in Fractions at the float points taken
    # as exact rationals.  A term c x^alpha takes at most |alpha| + 1
    # roundings (float(c), alpha_i - 1 running products per power and one
    # product per factor), and its row adds T terms to a zero start with
    # T - 1 more, so |computed - exact| <= gamma_(D + T) sum_t |c_t x^alpha_t|
    # with D the largest |alpha| and gamma_k = k u / (1 - k u), u = 2^-53
    # (Higham, Accuracy and Stability, Lemma 3.1 and Section 4.2).
    def degrees(*ns):
        return enumerate(e for n in ns for e in monomials_of_degree(3, n))

    polys = [MultiPoly(3, {e: (-1.5) ** k / (k + 1) for k, e in degrees(0, 2, 4, 6)}, FLOAT),
             MultiPoly(3, {e: Fraction((-3) ** k, 7 * k + 2) for k, e in degrees(1, 3, 5, 7)},
                       EXACT),
             MultiPoly(3, {(0, 0, 12): Fraction(1, 3), (5, 4, 3): -2.5, (0, 0, 0): 0.1},
                       FLOAT)]
    pts = np.random.default_rng(9).uniform(-1.2, 1.2, size=(50, 3))
    rows = eval_rows(polys, pts)
    for p, row in zip(polys, rows):
        k = p.degree() + len(p.terms)
        gamma = Fraction(k, 2 ** 53 - k)
        for x, got in zip(pts, row):
            x = [Fraction(v) for v in x]
            terms = [Fraction(c) * math.prod(xi ** e for xi, e in zip(x, exps))
                     for exps, c in p.terms.items()]
            assert abs(Fraction(got) - sum(terms)) <= gamma * sum(map(abs, terms))


def test_eval_rows_zero_empty_and_mismatch():
    pts = np.random.default_rng(1).uniform(-1, 1, size=(7, 2))
    x1 = MultiPoly.variable(2, 0, FLOAT)
    rows = eval_rows([MultiPoly.zero(2, FLOAT), x1], pts)
    assert rows.dtype == float and rows.shape == (2, 7)
    assert not rows[0].any()
    assert rows[1].tobytes() == pts[:, 0].tobytes()
    empty = eval_rows([], pts)
    assert empty.dtype == float and empty.shape == (0, 7)
    with pytest.raises(ValueError, match="shape"):
        eval_rows([x1, MultiPoly.variable(3, 0, FLOAT)], pts)
    with pytest.raises(ValueError, match="shape"):
        eval_rows([x1], pts[:, :1])


# ---------------------------------------------------------------------------
# exact vs float agreement
# ---------------------------------------------------------------------------

@given(exact_polys(dim=3, max_terms=6, max_deg=5))
@settings(max_examples=40, deadline=None)
def test_exact_float_evaluation_agrees(p):
    pts = np.random.default_rng(7).uniform(-1, 1, size=(10, 3))
    pf = p.to_float()
    vals_f = pf.eval_many(pts)
    for k in range(pts.shape[0]):
        exact_args = tuple(Fraction(pts[k, j]) for j in range(3))
        ev = float(p.eval(exact_args))
        assert abs(ev - vals_f[k]) <= 1e-12 * max(1.0, abs(ev))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_format_stability():
    x = MultiPoly.variable(2, 0, EXACT)
    y = MultiPoly.variable(2, 1, EXACT)
    p = x.power(2) * y.scale(frac(3, 2)) - MultiPoly.constant(2, frac(1), EXACT)
    assert p.to_text() == "-1 + 3/2 * x1^2*x2"
    f = MultiPoly.variable(2, 0, FLOAT) * 0.125 + MultiPoly.constant(2, -3.0, FLOAT)
    assert f.to_text() == "-3.0 + 0.125 * x1"


# ---------------------------------------------------------------------------
# graded monomial order
# ---------------------------------------------------------------------------

def test_monomials_of_degree_count_and_order():
    for d, n in [(2, 5), (3, 4), (4, 3)]:
        monos = monomials_of_degree(d, n)
        assert len(monos) == math.comb(n + d - 1, d - 1)
        assert monos[0] == (n,) + (0,) * (d - 1)
        assert monos == sorted(monos, reverse=True)


def test_homogeneous_components():
    x = MultiPoly.variable(2, 0, EXACT)
    y = MultiPoly.variable(2, 1, EXACT)
    p = x * y + x + MultiPoly.constant(2, frac(4), EXACT)
    comps = p.homogeneous_components()
    assert [deg for deg, _ in comps] == [0, 1, 2]
    total = MultiPoly.zero(2, EXACT)
    for _, c in comps:
        total = total + c
    assert total == p


# ---------------------------------------------------------------------------
# ring results are built without re-validation: they must already be canonical
# ---------------------------------------------------------------------------

def _canonical(r):
    """r as the validating constructor would build it: no zero coefficient,
    and every exact coefficient a Fraction (an int would compare equal)."""
    assert MultiPoly(r.dim, r.terms, r.mode) == r
    assert all(c != 0 for c in r.terms.values())
    if r.mode == EXACT:
        assert all(type(c) is Fraction for c in r.terms.values())
    return True


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_ring_results_hold_the_constructor_invariants(mode):
    rng = random.Random(mode)
    # few distinct small coefficients make cancellations to zero common
    scalars = [Fraction(k, 2) for k in (-3, -2, -1, 1, 2, 4)]
    if mode == FLOAT:
        scalars = [float(c) for c in scalars]

    def poly(d):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(0, 3) for _ in range(d))
            terms[exps] = rng.choice(scalars)
        return MultiPoly(d, terms, mode)

    for _ in range(60):
        d = rng.randint(1, 3)
        p, q = poly(d), poly(d)
        v = [rng.choice(scalars) for _ in range(d)]
        form = MultiPoly.linear_form(v, mode)
        matrix = [[rng.choice(scalars + [0]) for _ in range(d)] for _ in range(d)]
        results = [p + q, p - q, p + (-p), p - p, -p, p.scale(rng.choice(scalars)),
                   p * q, p.power(rng.randint(0, 3)),
                   p.partial_derivative(rng.randrange(d)),
                   p.substitute_linear(matrix),
                   (p * form).divide_by_linear_form(v)]
        results += [c for _, c in (p + q).homogeneous_components()]
        assert all(_canonical(r) for r in results)
