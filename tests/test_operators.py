import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from dunklsphere import (
    EXACT,
    FLOAT,
    DunklContext,
    Function1D,
    MultiPoly,
    UnsupportedGroupError,
    dunkl_apply,
    dunkl_laplacian,
    harmonic_basis,
    harmonic_space_dimension,
    intertwine,
    kernel_translate_batch,
    monomials_of_degree,
    parse_function,
    translate_as_polynomial,
)
from dunklsphere import operators
from dunklsphere.multipoly import (DIVIDE_TOL, EVAL_CHUNK_ROWS, LinearImages, _add_terms,
                                   _derivative_terms, _divide_terms)
from dunklsphere.operators import (SERIES_MAX_RATE, _bracket, _nullspace_exact, _quotient,
                                   _root_shape)
from dunklsphere.reflection import RootSystem, reflection_matrix


def xvar(d, i, mode=EXACT):
    return MultiPoly.variable(d, i, mode)


# ---------------------------------------------------------------------------
# Dunkl operators, exact mode
# ---------------------------------------------------------------------------

def test_dunkl_on_coordinate():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    d1 = dunkl_apply(ctx, 0, xvar(2, 0))
    assert d1 == MultiPoly.constant(2, Fraction(3), EXACT)  # 1 + 2 kappa_1
    d2 = dunkl_apply(ctx, 1, xvar(2, 1))
    assert d2 == MultiPoly.constant(2, Fraction(5), EXACT)  # 1 + 2 kappa_2


def test_dunkl_on_cube():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    p = xvar(2, 0).power(3)
    out = dunkl_apply(ctx, 0, p)
    assert out == xvar(2, 0).power(2).scale(Fraction(5))  # (3 + 2 kappa) x^2


def test_dunkl_cross_variable_is_plain_derivative():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    out = dunkl_apply(ctx, 0, xvar(2, 1).power(4))
    assert out.is_zero()


def test_kappa_zero_reduces_to_derivative():
    ctx = DunklContext.create("zd2", 3, 0)
    p = (xvar(3, 0) + xvar(3, 1)).power(3)
    assert dunkl_apply(ctx, 0, p) == p.partial_derivative(0)


@pytest.mark.parametrize("family,kappa", [("zd2", (1, 2)), ("b", (1, 2))])
def test_dunkl_operators_commute(family, kappa):
    ctx = DunklContext.create(family, 2, kappa)
    x, y = xvar(2, 0), xvar(2, 1)
    for p in [x.power(3) * y, (x + y).power(4),
              x.power(2) * y.power(2) + x * y.scale(Fraction(5, 3))]:
        d12 = dunkl_apply(ctx, 0, dunkl_apply(ctx, 1, p))
        d21 = dunkl_apply(ctx, 1, dunkl_apply(ctx, 0, p))
        assert d12 == d21


def test_laplacian_of_norm_squared():
    # Delta_kappa |x|^2 = 2 d + 4 gamma_kappa
    ctx = DunklContext.create("zd2", 2, (1, 2))
    p = xvar(2, 0).power(2) + xvar(2, 1).power(2)
    out = dunkl_laplacian(ctx, p)
    assert out == MultiPoly.constant(2, Fraction(16), EXACT)


def test_laplacian_norm_squared_b3():
    ctx = DunklContext.create("b", 3, (1, 1))
    p = sum((xvar(3, i).power(2) for i in range(1, 3)), xvar(3, 0).power(2))
    gamma = ctx.gamma_kappa
    out = dunkl_laplacian(ctx, p)
    assert out == MultiPoly.constant(3, Fraction(6) + 4 * gamma, EXACT)


def test_float_mode_matches_exact():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    ctxf = DunklContext.create("zd2", 2, (1.0, 2.0))
    p = (xvar(2, 0) + xvar(2, 1).scale(Fraction(2))).power(3)
    exact = dunkl_apply(ctx, 0, p).to_float()
    approx = dunkl_apply(ctxf, 0, p.to_float())
    pts = np.random.default_rng(0).uniform(-1, 1, (15, 2))
    assert np.allclose(exact.eval_many(pts), approx.eval_many(pts),
                       rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# sympy oracle for the full difference-quotient definition
# ---------------------------------------------------------------------------

def _sympy_dunkl(ctx, i, poly):
    d = ctx.dim
    xs = sympy.symbols(f"x0:{d}")
    expr = sympy.Integer(0)
    for exps, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for j, e in enumerate(exps):
            term *= xs[j] ** e
        expr += term
    out = sympy.diff(expr, xs[i])
    for root in ctx.root_system.positive:
        kv = ctx.kappa.value(root)
        if kv == 0:
            continue
        v = [sympy.Rational(r.numerator, r.denominator) for r in root]
        norm2 = sum(vi ** 2 for vi in v)
        form = sum(vi * xi for vi, xi in zip(v, xs))
        sub = {xs[j]: xs[j] - 2 * form * v[j] / norm2 for j in range(d)}
        reflected = expr.subs(sub, simultaneous=True)
        out += sympy.Rational(kv.numerator, kv.denominator) \
            * sympy.cancel((expr - reflected) / form) * v[i]
    return sympy.expand(out)


@pytest.mark.parametrize("family,kappa", [("zd2", (1, 2)), ("b", (2, 1))])
def test_sympy_oracle(family, kappa):
    ctx = DunklContext.create(family, 2, kappa)
    x, y = xvar(2, 0), xvar(2, 1)
    polys = [x.power(4), x.power(2) * y.power(3),
             (x - y).power(3) + x * y.scale(Fraction(7, 2))]
    xs = sympy.symbols("x0:2")
    for p in polys:
        for i in range(2):
            mine = dunkl_apply(ctx, i, p)
            ref = _sympy_dunkl(ctx, i, p)
            got = sympy.Integer(0)
            for exps, c in mine.terms.items():
                t = sympy.Rational(c.numerator, c.denominator)
                for j, e in enumerate(exps):
                    t *= xs[j] ** e
                got += t
            assert sympy.simplify(got - ref) == 0


# ---------------------------------------------------------------------------
# the h-Laplacian against sum_i D_i D_i
# ---------------------------------------------------------------------------

def _random_poly(rng, d, mode=EXACT, terms=5, max_deg=5):
    p = MultiPoly.zero(d, mode)
    for _ in range(terms):
        exps = [0] * d
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(d)] += 1
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = p + MultiPoly.monomial(d, exps, c, mode)
    return p


def _laplacian_by_definition(ctx, f):
    out = MultiPoly.zero(f.dim, f.mode)
    for i in range(ctx.dim):
        out = out + dunkl_apply(ctx, i, dunkl_apply(ctx, i, f))
    return out


# a rational root whose reflection is not integral: s_v has entries +-3/5, -4/5
CUSTOM = RootSystem(2, ((1, 2), (-1, -2)), ((1, 2),), "custom")


def _context(family, d, kappa):
    if family == "custom":
        return DunklContext.from_root_system(CUSTOM, kappa)
    return DunklContext.create(family, d, kappa)


@pytest.mark.parametrize("family,d,kappa", [
    ("a", 4, 1), ("d", 4, 1), ("b", 3, (1, 2)), ("zd2", 3, ("1/2", 1, 2)),
    ("custom", 2, 1)])
def test_laplacian_matches_squared_dunkl_operators(family, d, kappa):
    ctx = _context(family, d, kappa)
    rng = random.Random(f"{family}{d}")
    for _ in range(6):
        f = _random_poly(rng, d)
        for g in (f, f.scale(60)):          # the second has integer coefficients
            lap = dunkl_laplacian(ctx, g)
            assert lap == _laplacian_by_definition(ctx, g)
            # == alone would pass an int: Fraction(3) == 3
            assert all(type(c) is Fraction for c in lap.terms.values())


def test_laplacian_matches_squared_dunkl_operators_float_i2():
    ctx = DunklContext.create("i2", kappa=1, order=5)
    rng = random.Random("i2")
    pts = np.random.default_rng(11).standard_normal((12, 2))
    for _ in range(6):
        f = _random_poly(rng, 2, FLOAT)
        got = dunkl_laplacian(ctx, f).eval_many(pts)
        want = _laplacian_by_definition(ctx, f).eval_many(pts)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def _clear_shape_caches():
    for cache in (_root_shape, _quotient, _bracket):
        cache.cache_clear()


def test_one_root_shape_cache_holds_a_whole_context():
    # 300 positive roots of I2(300): one root-shape entry per root, held
    # for every bracket of the basis
    ctx = DunklContext.create("i2", kappa=1, order=300)
    _clear_shape_caches()
    harmonic_basis(ctx, 4)
    assert _root_shape.cache_info().misses == 300


def test_laplacian_of_every_monomial_matches_the_definition():
    # contexts that share root shapes ((1, -1) for a4 and d4, (1,) for b3 and
    # zd2) but not kappa take turns, degree by degree, from empty caches: a
    # kappa kept in a cached bracket would show in the context read second
    contexts = [_context("a", 4, 1), _context("a", 4, "1/2"), _context("b", 3, (1, 2)),
                _context("b", 3, ("1/2", 1)), _context("d", 4, "1/2"),
                _context("zd2", 3, ("1/2", 1, 2)), _context("custom", 2, 1)]
    _clear_shape_caches()
    for n in range(7):
        for ctx in contexts:
            for exps in monomials_of_degree(ctx.dim, n):
                f = MultiPoly.monomial(ctx.dim, exps)
                lap = dunkl_laplacian(ctx, f)
                assert lap == _laplacian_by_definition(ctx, f)
                assert all(type(c) is Fraction for c in lap.terms.values())


def test_float_and_exact_monomials_keep_their_own_brackets():
    # 1 == 1.0 and (1,) == (1.0,) hash alike: the mode keeps the entries apart
    ctx = DunklContext.create("zd2", 3, ("1/2", 1, 2))
    exps = (3, 2, 4)
    _clear_shape_caches()
    for mode in (FLOAT, EXACT, FLOAT, EXACT):
        lap = dunkl_laplacian(ctx, MultiPoly.monomial(3, exps, 1, mode))
        kind = float if mode == FLOAT else Fraction
        assert lap.terms and all(type(c) is kind for c in lap.terms.values())
        if mode == FLOAT:
            floats = lap.terms
        else:
            assert floats.keys() == lap.terms.keys()
            for e, c in lap.terms.items():
                assert floats[e] == pytest.approx(float(c), rel=1e-15)


def _laplacian_whole_polynomial(ctx, f):
    """The float h-Laplacian with each root's bracket taken on f as a whole,
    as (2 <grad f, v> - |v|^2 (f - f o s_v) / <v, x>) / <v, x>."""
    terms = f.terms
    grad = [_derivative_terms(terms, i) for i in range(f.dim)]
    out: dict = {}
    for i, g in enumerate(grad):
        _add_terms(out, _derivative_terms(g, i))
    for v in ctx.root_system.positive:
        weight = float(ctx.kappa.value(v))
        if weight == 0:
            continue
        v = tuple(float(c) for c in v)
        pivot = max(range(len(v)), key=lambda i: abs(v[i]))
        vv = sum(c * c for c in v)
        images = LinearImages(reflection_matrix(v), 1.0)
        num: dict = {}
        for g, vi in zip(grad, v):
            if vi != 0:
                _add_terms(num, g, 2 * vi)
        diff = _add_terms(dict(terms), images.compose(terms), -1)
        if diff:
            _add_terms(num, _divide_terms(diff, v, pivot, DIVIDE_TOL), -vv)
        if num:
            _add_terms(out, _divide_terms(num, v, pivot, DIVIDE_TOL), weight)
    return out


@pytest.mark.parametrize("m, kappa", [(5, 1), (4, 1), (3, 1), (6, 1), (12, 1),
                                      (8, (1, Fraction(5, 2)))],
                         ids=["5", "4", "3", "6", "12", "8-1,5/2"])
def test_float_laplacian_matches_the_whole_polynomial_route(m, kappa):
    # each I2(m) has two-coordinate roots that pivot on either coordinate,
    # and at even m the root (6e-17, 1), whose first coordinate is rounding
    ctx = DunklContext.create("i2", kappa=kappa, order=m)
    for n in range(9):
        for exps in monomials_of_degree(2, n):
            f = MultiPoly.monomial(2, exps, 1, FLOAT)
            assert dunkl_laplacian(ctx, f).terms == _laplacian_whole_polynomial(ctx, f)
    # a sum of per-term brackets rounds differently from the whole division
    rng = random.Random(f"i2-{m}")
    for _ in range(8):
        f = _random_poly(rng, 2, FLOAT, terms=6, max_deg=8)
        got, want = dunkl_laplacian(ctx, f).terms, _laplacian_whole_polynomial(ctx, f)
        top = max(map(abs, want.values()), default=0.0)
        for e in got.keys() | want.keys():
            assert abs(got.get(e, 0.0) - want.get(e, 0.0)) <= 1e-13 * top


# ---------------------------------------------------------------------------
# harmonic spaces
# ---------------------------------------------------------------------------

def test_harmonic_space_dimension_formula():
    assert harmonic_space_dimension(2, 0) == 1
    assert harmonic_space_dimension(2, 3) == 2
    assert harmonic_space_dimension(3, 4) == 9     # 2n + 1
    assert harmonic_space_dimension(5, 2) == 14


@pytest.mark.parametrize("d,kappa", [(2, (1, 1)), (2, (2, 3)), (3, (1, 2, 1))])
def test_harmonic_basis_counts_and_annihilation(d, kappa):
    ctx = DunklContext.create("zd2", d, kappa)
    for n in range(6):
        basis = harmonic_basis(ctx, n)
        assert len(basis.elements) == harmonic_space_dimension(d, n)
        for el in basis.elements:
            assert dunkl_laplacian(ctx, el).is_zero()


def test_harmonic_basis_float_mode():
    ctx = DunklContext.create("zd2", 2, (0.5, 1.5))
    basis = harmonic_basis(ctx, 4)
    assert len(basis.elements) == 2
    for el in basis.elements:
        residual = dunkl_laplacian(ctx, el)
        pts = np.random.default_rng(4).uniform(-1, 1, (10, 2))
        assert np.max(np.abs(residual.eval_many(pts))) <= 1e-9


# one root whose support has all three coordinates, rational and as floats
TRIPLE = RootSystem(3, ((1, 1, 1), (-1, -1, -1)), ((1, 1, 1),), "custom")
TRIPLE_FLOAT = RootSystem(3, ((1.0, 0.5, 0.25), (-1.0, -0.5, -0.25)), ((1.0, 0.5, 0.25),),
                          "custom", exact=False)


def test_three_coordinate_root_exact():
    ctx = DunklContext.from_root_system(TRIPLE, Fraction(1, 2))
    for n in range(5):
        basis = harmonic_basis(ctx, n)
        assert len(basis) == 2 * n + 1
        for el in basis.elements:
            assert _laplacian_by_definition(ctx, el).is_zero()
    rng = random.Random("triple")
    for _ in range(6):
        f = _random_poly(rng, 3)
        assert dunkl_laplacian(ctx, f) == _laplacian_by_definition(ctx, f)


def test_three_coordinate_root_float():
    ctx = DunklContext.from_root_system(TRIPLE_FLOAT, 1)
    pts = np.random.default_rng(3).standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for n in range(5):
        basis = harmonic_basis(ctx, n)
        assert len(basis) == 2 * n + 1
        for el in basis.elements:
            assert el.mode == FLOAT
            bound = 1e-12 * sum(abs(c) for c in el.terms.values())
            residual = _laplacian_by_definition(ctx, el).eval_many(pts)
            assert np.abs(residual).max() <= bound


@pytest.mark.parametrize("m", [4, 6, 8])
def test_harmonic_basis_dihedral_even_order(m):
    # the float root at angle pi/2 is (6e-17, 1): divisions must pivot on
    # its large coordinate
    ctx = DunklContext.create("i2", kappa=1, order=m)
    pts = np.random.default_rng(m).standard_normal((10, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for n in range(2, 7):
        basis = harmonic_basis(ctx, n)
        assert len(basis.elements) == harmonic_space_dimension(2, n)
        for el in basis.elements:
            residual = _laplacian_by_definition(ctx, el)
            assert np.max(np.abs(residual.eval_many(pts))) <= 1e-9


@pytest.mark.parametrize("family,d,kappa,n", [
    ("a", 4, 1, 5), ("d", 4, 1, 4), ("b", 3, (1, 2), 5), ("zd2", 4, "1/2", 4),
    ("custom", 2, 1, 4)])
def test_harmonic_basis_matches_the_definition_route(family, d, kappa, n):
    # the nullspace of the Laplacian matrix built from sum_i D_i D_i
    ctx = _context(family, d, kappa)
    source = monomials_of_degree(d, n)
    tindex = {e: k for k, e in enumerate(monomials_of_degree(d, n - 2))}
    rows = [{} for _ in tindex]
    for col, exps in enumerate(source):
        lap = _laplacian_by_definition(ctx, MultiPoly.monomial(d, exps))
        for e, c in lap.terms.items():
            rows[tindex[e]][col] = c
    want = [MultiPoly(d, {source[c]: x for c, x in vec.items()}).to_text()
            for vec in _nullspace_exact(rows, len(source))]
    assert [p.to_text() for p in harmonic_basis(ctx, n).elements] == want


def _random_sparse_rows(rng, nrows, ncols, per_row=3, zero_col=None):
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for row in rows:
        for c in rng.sample(range(ncols), rng.randint(0, min(per_row, ncols))):
            if c != zero_col:
                row[c] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if nrows >= 3:   # rank deficient: a row combining two others
        rows[-1] = [a - Fraction(2, 3) * b for a, b in zip(rows[0], rows[1])]
    if nrows >= 8:   # and one combining three
        rows[-2] = [a + 3 * b - Fraction(1, 2) * c for a, b, c in zip(*rows[2:5])]
    return rows


def _dense(vec, ncols):
    """A sparse nullspace vector of _nullspace_exact as a dense list, after
    checking its form: columns ascending, no zero entry."""
    assert list(vec) == sorted(vec) and all(vec.values())
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


@pytest.mark.parametrize("seed", range(20))
def test_nullspace_exact_matches_sympy(seed):
    rng = random.Random(seed)
    if seed < 12:
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        rows = _random_sparse_rows(rng, nrows, ncols)
    else:
        # larger, with a zero column among the first three (so the pivot
        # columns are no prefix) and two dependent rows: the back-substitution
        # pass has many later pivots to clear
        nrows, ncols = rng.randint(8, 12), rng.randint(12, 20)
        rows = _random_sparse_rows(rng, nrows, ncols, per_row=5, zero_col=rng.randrange(3))
        _, pivots = sympy.Matrix(rows).rref()
        assert pivots != tuple(range(len(pivots))) and len(pivots) < nrows
    got = _nullspace_exact([dict(enumerate(r)) for r in rows], ncols)
    want = sympy.Matrix(rows).nullspace()
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        assert _dense(vec, ncols) == [Fraction(int(x.p), int(x.q)) for x in ref]


def test_nullspace_exact_zero_and_empty_rows():
    def dense(rows, ncols):
        return [_dense(vec, ncols) for vec in _nullspace_exact(rows, ncols)]
    assert dense([], 2) == [[1, 0], [0, 1]]
    assert dense([{}, {0: Fraction(0)}], 2) == [[1, 0], [0, 1]]
    assert dense([{1: Fraction(3, 2)}], 3) == [[1, 0, 0], [0, 0, 1]]


@pytest.mark.parametrize("n", [1.5, 2.0, Fraction(3, 2), -1])
def test_harmonic_basis_refuses_a_degree_that_is_no_natural_number(n):
    ctx = DunklContext.create("zd2", 2, (1, 1))
    with pytest.raises(ValueError, match=re.escape(f"not {n!r}")):
        harmonic_basis(ctx, n)


def test_harmonic_basis_counts_its_laplacian_matrix_first(monkeypatch):
    # on the circle the matrix is (n - 1) x (n + 1): 4095 x 4097 is one
    # entry under the limit of check_size, 4096 x 4098 is above it
    operators._check_basis_size(2, 4096)
    with pytest.raises(ValueError, match="degree 4097 in d = 2 takes a 4096 x 4098 "):
        harmonic_basis(DunklContext.create("i2", kappa=1, order=5), 4097)
    counted = []
    monkeypatch.setattr(operators, "check_size", lambda count, *rest: counted.append(count))
    for d in (1, 2, 3, 4):
        ctx = DunklContext.create("zd2", d, 1)
        for n in range(6):
            harmonic_basis(ctx, n)
            assert counted.pop() == (len(monomials_of_degree(d, n - 2))
                                     * len(monomials_of_degree(d, n)))


def test_harmonic_basis_degree_one_and_zero():
    ctx = DunklContext.create("zd2", 3, (1, 1, 1))
    assert len(harmonic_basis(ctx, 0).elements) == 1
    assert len(harmonic_basis(ctx, 1).elements) == 3


# ---------------------------------------------------------------------------
# orbit route of exact harmonic bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,d,kappa,blocks", [
    ("a", 4, 1, ((1, 2, 3),)), ("b", 3, (1, 2), ((1, 2),)),
    ("zd2", 4, (1, 2, 1, 2), ((1, 3),)), ("zd2", 3, ("1/2", 1, 2), ()),
    ("d", 5, "1/3", ((1, 2, 3, 4),)), ("custom", 2, 1, ())])
def test_blocks_join_coordinates_whose_swap_keeps_roots_and_kappa(family, d, kappa, blocks):
    assert _context(family, d, kappa)._blocks == blocks


def test_float_context_has_no_blocks():
    assert DunklContext.create("i2", kappa=1, order=5)._blocks == ()
    assert DunklContext.create("i2", kappa=(1, 2), order=4)._blocks == ()


def _terms(basis):
    return repr([(p.mode, list(p.terms.items())) for p in basis.elements])


def _without_blocks(ctx):
    """ctx with its cached _blocks emptied, so harmonic_basis solves the full
    matrix."""
    ctx.__dict__["_blocks"] = ()
    return ctx


@pytest.mark.parametrize("family,d,kappa,top", [
    ("a", 4, 1, 7), ("b", 4, ("1/2", 1), 5), ("d", 5, "1/3", 5),
    ("zd2", 4, ("1/2", 1, "1/2", 1), 6), ("b", 3, (0, 1), 6)])
def test_orbit_route_equals_the_full_matrix(family, d, kappa, top):
    ctx, full = _context(family, d, kappa), _without_blocks(_context(family, d, kappa))
    assert ctx._blocks
    for n in range(top + 1):
        assert _terms(harmonic_basis(ctx, n)) == _terms(harmonic_basis(full, n)), n


def _spy(monkeypatch, name, change=None):
    """Record the number of monomials or columns of each call of operators.name,
    passing its result through change(args, result) if given."""
    calls, inner = [], getattr(operators, name)

    def spy(*args):
        calls.append(len(args[0]) if name == "_laplacian_matrix" else args[1])
        out = inner(*args)
        return change(args, out) if change else out

    monkeypatch.setattr(operators, name, spy)
    return calls


def test_orbit_route_solves_one_column_per_orbit(monkeypatch):
    # A4 at degree 6: 35 pivot columns (alpha_1 >= 2) and 12 of the 49 free
    # monomials non-increasing in x_2, x_3, x_4, out of 84 monomials
    calls = _spy(monkeypatch, "_nullspace_exact")
    basis = harmonic_basis(DunklContext.create("a", 4, 1), 6)
    assert calls == [47] and len(basis) == 49


def test_orbit_route_falls_back_when_a_pivot_column_comes_out_free(monkeypatch):
    ctx = DunklContext.create("a", 4, 1)
    want = _terms(harmonic_basis(_without_blocks(DunklContext.create("a", 4, 1)), 6))

    def copy_column(args, matrix):          # column 0 := column 1 in the reduced matrix
        if len(args[0]) < 84:
            for row in matrix.values():
                row.pop(0, None)
                if 1 in row:
                    row[0] = row[1]
        return matrix

    calls = _spy(monkeypatch, "_laplacian_matrix", copy_column)
    assert _terms(harmonic_basis(ctx, 6)) == want
    assert calls == [47, 84]


# ---------------------------------------------------------------------------
# intertwining operator
# ---------------------------------------------------------------------------

def test_intertwine_fixes_constants():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    one = MultiPoly.constant(2, Fraction(1), EXACT)
    assert intertwine(ctx, one) == one


def test_intertwine_identity_at_kappa_zero():
    ctx = DunklContext.create("zd2", 2, (0, 1))
    p = (xvar(2, 0) + xvar(2, 1)).power(3)
    ctx0 = DunklContext.create("zd2", 3, 0)
    q = (xvar(3, 0) * xvar(3, 1)).power(2)
    assert intertwine(ctx0, q) == q
    # axis with kappa = 0 is untouched, the other is scaled
    vx = intertwine(ctx, xvar(2, 0).power(2))
    assert vx == xvar(2, 0).power(2)


def test_intertwine_monomial_scaling():
    # V x1^2 = x1^2 (1/2)_1 / (kappa + 1/2)_1 = x1^2 / 3 at kappa = 1
    ctx = DunklContext.create("zd2", 2, (1, 0))
    out = intertwine(ctx, xvar(2, 0).power(2))
    assert out == xvar(2, 0).power(2).scale(Fraction(1, 3))


def test_intertwine_commutes_with_derivative_spot():
    ctx = DunklContext.create("zd2", 2, (2, 3))
    for exps in [(4, 2), (3, 3), (5, 0)]:
        p = MultiPoly.monomial(2, exps, Fraction(1), EXACT)
        lhs = dunkl_apply(ctx, 0, intertwine(ctx, p))
        rhs = intertwine(ctx, p.partial_derivative(0))
        assert lhs == rhs


def test_intertwine_unsupported_group():
    ctx = DunklContext.create("b", 2, (1, 1))
    with pytest.raises(UnsupportedGroupError):
        intertwine(ctx, xvar(2, 0).power(2))


# ---------------------------------------------------------------------------
# kernel translates
# ---------------------------------------------------------------------------

def test_kernel_constant_generator():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    g = Function1D.polynomial([1])
    x = np.array([1.0, 0.0])
    ys = np.random.default_rng(5).standard_normal((20, 2))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    vals = kernel_translate_batch(ctx, g, x, ys)
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_kernel_kappa_zero_is_zonal():
    ctx = DunklContext.create("zd2", 3, 0)
    g = Function1D.exponential()
    rng = np.random.default_rng(6)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    ys = rng.standard_normal((10, 3))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    vals = kernel_translate_batch(ctx, g, x, ys)
    assert np.allclose(vals, np.exp(ys @ x), rtol=1e-14)


def test_kernel_matches_polynomial_translate():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    g = Function1D.polynomial([Fraction(1), Fraction(0), Fraction(2),
                               Fraction(-1)])
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2)
    x /= np.linalg.norm(x)
    ys = rng.standard_normal((30, 2))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    quad_vals = kernel_translate_batch(ctx, g, x, ys)
    poly_vals = translate_as_polynomial(ctx, g, x).eval_many(ys)
    assert np.max(np.abs(quad_vals - poly_vals)) <= 1e-10


def test_kernel_gegenbauer_generator_routes_agree():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    g = Function1D.gegenbauer_poly(3, ctx.lambda_kappa)
    x = np.array([0.6, 0.8])
    ys = np.random.default_rng(8).standard_normal((12, 2))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    a = kernel_translate_batch(ctx, g, x, ys)
    b = translate_as_polynomial(ctx, g, x).eval_many(ys)
    assert np.max(np.abs(a - b)) <= 1e-10


def _stereographic(t):
    """The inverse stereographic image of t in Q^(d-1): a rational point of
    the unit sphere in Q^d."""
    s = sum(c * c for c in t)
    return [2 * c / (s + 1) for c in t] + [(s - 1) / (s + 1)]


@pytest.mark.parametrize("kappa", [(Fraction(1, 2), 1, 2), 0], ids=["half-1-2", "zero"])
def test_translate_polynomial_matches_exact_expansion(kappa):
    # Truth: g(<x, y>) expanded by Horner in exact arithmetic, then the exact
    # intertwine, at the float centres taken as exact rationals (the
    # rational sphere points round to them).  The code forms the coefficient
    # of y^alpha as float(g_n) * (num / den) * prod_i x_i^alpha_i, with
    # n = |alpha|, num / den = (n! / alpha!) prod_i b(alpha_i) as one
    # correctly rounded int division and x_i^m by m - 1 running products:
    # at most 3 roundings before the powers and alpha_i for the factor x_i^
    # alpha_i (x^0 = 1 is exact), so K = |alpha| + 3 roundings of relative
    # size u = 2^-53 each, and the relative error is at most
    # gamma_K = K u / (1 - K u) (Higham, Accuracy and Stability, Lemma 3.1).
    ctx = DunklContext.create("zd2", 3, kappa)
    g = Function1D.polynomial([Fraction(c) for c in
                               ("3", "-1/2", "0", "2/3", "1", "0", "-5/7", "1/3", "2", "-1/9")])
    ts = [(Fraction(1, 3), Fraction(-2, 5)), (Fraction(7, 4), Fraction(1, 6)),
          (Fraction(0), Fraction(-3, 2)), (Fraction(0), Fraction(0))]
    xs = np.array([[float(c) for c in _stereographic(t)] for t in ts])
    got = translate_as_polynomial(ctx, g, xs)
    assert len(got) == len(ts)
    for x, poly in zip(xs, got):
        form = MultiPoly.linear_form([Fraction(c) for c in x], EXACT)
        truth = MultiPoly.zero(3, EXACT)
        for c in reversed(g.coefficients):
            truth = truth * form + MultiPoly.constant(3, c, EXACT)
        truth = intertwine(ctx, truth)
        assert poly.mode == FLOAT and set(poly.terms) == set(truth.terms)
        for e, want in truth.terms.items():
            k = sum(e) + 3
            assert abs(Fraction(poly.terms[e]) - want) <= Fraction(k, 2 ** 53 - k) * abs(want)
        # the one-centre form is the batch's row
        assert translate_as_polynomial(ctx, g, x) == poly


def test_translate_polynomial_refuses_bad_centres():
    ctx = DunklContext.create("zd2", 3, (1, 1, 1))
    g = Function1D.polynomial([1, 2, 3])
    for x in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match="ctx.dim = 3 coordinates"):
            translate_as_polynomial(ctx, g, x)
    with pytest.raises(ValueError, match="needs polynomial g"):
        translate_as_polynomial(ctx, Function1D.exponential(), np.zeros(3))


def _unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _exp_kernel_factor(kappa, s):
    """V_kappa[e^(s .)](1) on one axis of Z_2^d, the rank-one Dunkl kernel

        E_k(s) = j_{k-1/2}(s) + s / (2k + 1) j_{k+1/2}(s),
        j_a(s) = Gamma(a + 1) (|s| / 2)^(-a) I_a(|s|),  j_a(0) = 1,

    with E_0(s) = e^s."""
    from mpmath import mp

    if kappa == 0:
        return mp.exp(s)
    k = mp.mpf(kappa.numerator) / kappa.denominator

    def j(a):
        if s == 0:
            return mp.mpf(1)
        return mp.gamma(a + 1) * (abs(s) / 2) ** (-a) * mp.besseli(a, abs(s))

    return j(k - mp.mpf(1) / 2) + s / (2 * k + 1) * j(k + mp.mpf(1) / 2)


@pytest.mark.parametrize("kappa", [(1, 1), ("1/2", 0, 2), (1, "1/3", "3/2", 1)])
def test_exp_kernel_matches_the_dunkl_kernel_closed_form(kappa):
    # V_kappa[e^<x, .>](y) = prod_i E_{kappa_i}(x_i y_i) on Z_2^d
    from mpmath import mp

    ctx = DunklContext.create("zd2", len(kappa), kappa)
    rng = np.random.default_rng(11)
    x = _unit_rows(rng, 1, ctx.dim)[0]
    ys = _unit_rows(rng, 8, ctx.dim)
    got = kernel_translate_batch(ctx, Function1D.exponential(), x, ys, 48)
    with mp.workdps(30):
        for y, value in zip(ys, got):
            want = mp.fprod(_exp_kernel_factor(k, mp.mpf(float(xi * yi)))
                            for k, xi, yi in zip(ctx.kappa_by_axis(), x, y))
            assert abs(value - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("text", ["exp", "cosh", "sinh", "cos 3", "cos 1/2",
                                  "sum 1*exp + -2*cosh + 1/3*cos 5/2 + 1/2*sinh"])
@pytest.mark.parametrize("kappa", [(1, 2), ("1/2", 0, 2), (1, "1/3", "3/2", 1)])
def test_exponential_kernels_match_the_tensor_route(text, kappa):
    # a user callable of the same g takes the tensor grid
    g = parse_function(text)
    assert g.exponential_terms is not None
    ctx = DunklContext.create("zd2", len(kappa), kappa)
    rng = np.random.default_rng(12)
    x = _unit_rows(rng, 1, ctx.dim)[0]
    ys = _unit_rows(rng, 40, ctx.dim)
    order = 16 if ctx.dim == 4 else 48
    got = kernel_translate_batch(ctx, g, x, ys, order)
    want = kernel_translate_batch(ctx, Function1D.from_callable(g), x, ys, order)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("text", ["exp", "cosh", "cos 3", "cos 12", "poly 1,2,0,-1",
                                  "sum 1*exp + -2*cosh + 1/3*cos 12 + 1/2*sinh"])
@pytest.mark.parametrize("kappa", [(1, 2), ("1/2", 0, 2), (0, 0, 0)])
def test_many_centres_equal_stacked_single_centre_calls(text, kappa):
    # 30 centres on 1000 points take several chunks of points on the moment
    # series (cos 3 needs 32 terms) and of centre-point pairs on the direct
    # sum (cos 12) and the tensor grid (poly); kappa 0 takes node blocks
    ctx = DunklContext.create("zd2", len(kappa), kappa)
    g = parse_function(text, ctx.lambda_kappa)
    rng = np.random.default_rng(13)
    xs, ys = _unit_rows(rng, 30, ctx.dim), _unit_rows(rng, 1000, ctx.dim)
    got = kernel_translate_batch(ctx, g, xs, ys, 16)
    want = np.stack([kernel_translate_batch(ctx, g, x, ys, 16) for x in xs])
    assert got.shape == (30, 1000)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _dunkl_kernel_factor(kappa, s):
    """E_kappa(s) of _exp_kernel_factor for complex s, through
    j_a(s) = 0F1(; a + 1; s^2 / 4)."""
    from mpmath import mp

    if kappa == 0:
        return mp.exp(s)
    k = mp.mpf(kappa.numerator) / kappa.denominator
    half = mp.mpf(1) / 2
    return (mp.hyp0f1(k + half, s * s / 4)
            + s / (2 * k + 1) * mp.hyp0f1(k + 1 + half, s * s / 4))


@pytest.mark.parametrize("w", [3, 12])                # both sides of SERIES_MAX_RATE
@pytest.mark.parametrize("kappa", [(1, 1), ("1/2", 0, 2), (1, "1/3", "3/2", 1)])
def test_cos_kernel_matches_the_dunkl_kernel_closed_form(kappa, w):
    # V_kappa[cos(w <x, .>)](y) = Re prod_i E_{kappa_i}(i w x_i y_i) on Z_2^d
    from mpmath import mp

    assert (abs(1j * w) <= SERIES_MAX_RATE) == (w == 3)
    ctx = DunklContext.create("zd2", len(kappa), kappa)
    rng = np.random.default_rng(11)
    xs, ys = _unit_rows(rng, 3, ctx.dim), _unit_rows(rng, 8, ctx.dim)
    got = kernel_translate_batch(ctx, parse_function(f"cos {w}"), xs, ys, 48)
    with mp.workdps(30):
        for x, row in zip(xs, got):
            for y, value in zip(ys, row):
                want = mp.re(mp.fprod(
                    _dunkl_kernel_factor(k, mp.mpc(0, w * float(xi) * float(yi)))
                    for k, xi, yi in zip(ctx.kappa_by_axis(), x, y)))
                assert abs(value - want) <= 1e-13


def test_kernel_rows_are_counted_before_they_are_allocated():
    # 4097 centres on 4096 points are 16781312 values, just above the limit;
    # the inputs are broadcast views, so a traced peak far below the 128 MiB
    # output shows that nothing was allocated
    ctx = DunklContext.create("zd2", 2, (1, 1))
    xs = np.broadcast_to(np.array([1.0, 0.0]), (4097, 2))
    ys = np.broadcast_to(np.array([0.0, 1.0]), (4096, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="16781312 values"):
            kernel_translate_batch(ctx, Function1D.exponential(), xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_moment_series_reach_check_copies_no_points():
    # max |y_i| comes from each column's max and min, so one exp batch on
    # 200000 points holds its (1, Q) output and chunk temporaries, not a
    # copy of the points
    ctx = DunklContext.create("zd2", 4, 1)
    rng = np.random.default_rng(5)
    ys = _unit_rows(rng, 200_000, 4)
    x = _unit_rows(rng, 1, 4)[0]
    g = Function1D.exponential()
    kernel_translate_batch(ctx, g, x, ys[:10], 8)          # rules built and cached
    tracemalloc.start()
    try:
        kernel_translate_batch(ctx, g, x, ys, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ys.nbytes / 2


def test_kappa_zero_rows_match_across_point_chunks():
    # 5 centres take chunks of 3200 points: 6407 points cross two chunk
    # boundaries, and a GEMM per chunk matches one product of all of them
    ctx = DunklContext.create("zd2", 3, 0)
    rng = np.random.default_rng(11)
    xs, ys = _unit_rows(rng, 5, 3), _unit_rows(rng, 2 * EVAL_CHUNK_ROWS // 5 + 7, 3)
    got = kernel_translate_batch(ctx, Function1D.exponential(), xs, ys)
    assert np.allclose(got, np.exp(xs @ ys.T), rtol=1e-15, atol=0)
    empty = kernel_translate_batch(ctx, Function1D.exponential(), np.empty((0, 3)), ys)
    assert empty.shape == (0, len(ys))


def test_kappa_zero_rows_hold_no_copy_of_the_points():
    # 8 centres on 200000 points: beyond the (8, Q) output, chunks of
    # EVAL_CHUNK_ROWS // 8 points hold the products and kernel values
    ctx = DunklContext.create("zd2", 4, 0)
    rng = np.random.default_rng(5)
    ys, xs = _unit_rows(rng, 200_000, 4), _unit_rows(rng, 8, 4)
    tracemalloc.start()
    try:
        out = kernel_translate_batch(ctx, Function1D.exponential(), xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < ys.nbytes / 2


def test_tensor_route_builds_no_per_centre_copy_of_the_points():
    # the pinned and active parts of <x, y> are built per chunk of points,
    # so one step batch on 200000 points holds its (1, Q) output and chunk
    # temporaries, not (Q, d) products of every point with the centre; kernel
    # order 2 keeps the chunks few, as order 4 takes over 1 s under tracemalloc
    ctx = DunklContext.create("zd2", 4, 1)
    rng = np.random.default_rng(5)
    ys = _unit_rows(rng, 200_000, 4)
    x = _unit_rows(rng, 1, 4)[0]
    g = parse_function("step 1/2")
    kernel_translate_batch(ctx, g, x, ys[:10], 2)          # rules built and cached
    tracemalloc.start()
    try:
        kernel_translate_batch(ctx, g, x, ys, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ys.nbytes / 2


def test_moment_series_refuses_points_off_the_sphere():
    # |x_1 y_1| = 3 would put the series past its truncation bound; the
    # direct sum (cos 12) and the tensor grid hold for any points
    ctx = DunklContext.create("zd2", 3, (1, 0, 1))
    x, ys = np.array([1.0, 0.0, 0.0]), np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for text in ("exp", "sum 1*cos 12 + 1*cosh"):
        with pytest.raises(ValueError, match="must lie on the unit sphere"):
            kernel_translate_batch(ctx, parse_function(text), x, ys)
    for text in ("cos 12", "poly 1,2,0,-1"):
        assert np.all(np.isfinite(kernel_translate_batch(ctx, parse_function(text), x, ys)))
    zero = DunklContext.create("zd2", 3, 0)
    assert np.array_equal(kernel_translate_batch(zero, parse_function("exp"), x, ys),
                          np.exp(ys @ x))


def test_sum_with_a_step_takes_the_tensor_route():
    g = parse_function("sum 1*exp + 1/2*step 1/2")
    assert g.exponential_terms is None
    ctx = DunklContext.create("zd2", 5, 1)
    x, ys = np.eye(5)[0], np.eye(5)[1:]
    # the tensor route counts its 48^5 grid and refuses it before building it
    with pytest.raises(ValueError, match="254803968"):
        kernel_translate_batch(ctx, g, x, ys)
    exp = kernel_translate_batch(ctx, parse_function("exp"), x, ys)
    assert np.allclose(exp, 1.0, rtol=0, atol=1e-14)     # e^0 on every axis


@pytest.mark.parametrize("kappa", [(1, 1), (1, 0)])
def test_kernel_rule_matrix_is_counted_before_it_is_built(kappa):
    # the factored route builds no grid, but each axis rule still needs an
    # order x order Golub-Welsch matrix: 4097^2 entries are above the limit
    ctx = DunklContext.create("zd2", 2, kappa)
    with pytest.raises(ValueError, match="4097 x 4097 Jacobi matrix"):
        kernel_translate_batch(ctx, Function1D.exponential(), np.array([1.0, 0.0]),
                               np.eye(2), 4097)


def test_kernel_symmetric_in_arguments():
    g = Function1D.exponential()
    rng = np.random.default_rng(9)
    ctx = DunklContext.create("zd2", 2, ("1/2", "3/2"))
    z = rng.standard_normal((8, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    xs, ys = z[:4], z[4:]
    kxy = kernel_translate_batch(ctx, g, xs, ys)
    assert np.allclose(kxy, kernel_translate_batch(ctx, g, ys, xs).T,
                       rtol=1e-12, atol=1e-12)


def test_kernel_requires_unit_vectors():
    # the moment series' reach check refuses |x_i y_i| > 1
    ctx = DunklContext.create("zd2", 2, (1, 1))
    g = Function1D.exponential()
    with pytest.raises(ValueError, match="unit sphere"):
        kernel_translate_batch(ctx, g, np.array([2.0, 0.0]),
                               np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("dim,kappa,text,x,ys", [
    (3, 0, "exp", [1.0, 0.0, 0.0], np.eye(2)),                  # g(<x, y>)
    (2, (1, 1), "exp", [1.0, 0.0], np.eye(3)),                  # moment series
    (2, (1, 1), "step 0", [1.0, 0.0, 0.0], np.eye(2)),          # tensor grid
    (2, (1, 1), "cos 5", np.eye(2), np.eye(3)[:, :1]),          # direct sum
], ids=["kappa-0", "series", "grid", "direct"])
def test_kernel_refuses_points_of_another_dimension(dim, kappa, text, x, ys, monkeypatch):
    def built(*args, **kwargs):
        raise RuntimeError("a rule or an output was sized")

    for name in ("_nu_rule", "check_size", "_check_kernel_rows"):
        monkeypatch.setattr(operators, name, built)
    ctx = DunklContext.create("zd2", dim, kappa)
    x, ys = np.asarray(x, dtype=float), np.asarray(ys, dtype=float)
    with pytest.raises(ValueError) as err:
        kernel_translate_batch(ctx, parse_function(text), x, ys)
    assert str(err.value) == (
        f"kernel centres and points need ctx.dim = {dim} coordinates, "
        f"not centres of shape {x.shape} and points of shape {ys.shape}")


def test_kernel_unsupported_group():
    ctx = DunklContext.create("b", 2, (1, 1))
    g = Function1D.exponential()
    with pytest.raises(UnsupportedGroupError):
        kernel_translate_batch(ctx, g, np.array([1.0, 0.0]),
                               np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("family, dim", [("b", 3), ("a", 4), ("d", 4), ("zd2", 3)])
def test_kappa_zero_factors_by_axis_on_every_family(family, dim):
    # (every d = 2 family, i2 among them, has lambda = 0 at kappa = 0)
    ctx = DunklContext.create(family, dim, 0)
    assert ctx.kappa_by_axis() == (0,) * dim
    assert ctx.kappa_by_axis() is ctx.kappa_by_axis()         # cached
    p = _random_poly(random.Random(dim), dim)
    assert intertwine(ctx, p) == p
    rng = np.random.default_rng(dim)
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    ys = rng.standard_normal((25, dim))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    for g in ("exp", "poly 1,2,0,-1", "step 1/3"):
        fn = parse_function(g, ctx.lambda_kappa)
        assert np.array_equal(kernel_translate_batch(ctx, fn, x, ys), fn(ys @ x))


def test_context_describe_and_properties():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    assert ctx.root_system.family == "zd2" and not ctx.kappa_is_zero and ctx.exact
    assert ctx.gamma_kappa == 3
    assert list(ctx.kappa_by_axis()) == [Fraction(1), Fraction(2)]
    info = ctx.describe()
    assert info["family"] == "zd2"


@pytest.mark.parametrize("m, kappa", [(4, (1, 2)), (5, 1)])
def test_context_describe_dihedral_order(m, kappa):
    info = DunklContext.create("i2", kappa=kappa, order=m).describe()
    assert info["family"] == "i2"
    assert info["order"] == m
