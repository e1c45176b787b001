"""The Laplacian kernel and dunkl_apply against the term-dict route.

The oracle builds Delta_kappa of a term dict as one dict: the classical part
first, then root by root each term's cached bracket, placed on the root's
support in a dict of its own and added with _add_terms (_add_factored);
dunkl_apply's quotients go the same way.  _laplacian_matrix must hold, in
column k, the same entries as the oracle's dict of the k-th monomial: the
same value, of the same type, with the same float bits.  dunkl_apply must
give the same terms bit for bit, and dunkl_laplacian the same exact
polynomial on multi-term input.  The contexts include weights other than 1
(A4 at 2/3 has scale 3 and weight 2), several roots on one entry (I2) and
Fraction entries ({+-(1, 2)})."""

import random
from fractions import Fraction

import pytest

from dunklsphere import EXACT, FLOAT, DunklContext, MultiPoly, dunkl_apply, dunkl_laplacian
from dunklsphere.multipoly import _add_terms, _derivative_terms, monomials_of_degree
from dunklsphere.operators import (_bracket, _cleared, _laplacian_matrix, _quotient,
                                   _restored)
from dunklsphere.reflection import RootSystem

CUSTOM = RootSystem(2, ((1, 2), (-1, -2)), ((1, 2),), "custom")
CONTEXTS = {
    "a4": lambda: DunklContext.create("a", 4, Fraction(2, 3)),
    "b3": lambda: DunklContext.create("b", 3, (Fraction(1, 2), 2)),
    "d4": lambda: DunklContext.create("d", 4, 2),
    "zd2-3": lambda: DunklContext.create("zd2", 3, (Fraction(1, 2), 1, 2)),
    "i2-5": lambda: DunklContext.create("i2", kappa=Fraction(1, 3), order=5),
    "i2-8": lambda: DunklContext.create("i2", kappa=(1, Fraction(5, 2)), order=8),
    "custom": lambda: DunklContext.from_root_system(CUSTOM, Fraction(1, 3)),
}
EXACT_CONTEXTS = ["a4", "b3", "d4", "zd2-3", "custom"]


def _add_factored(out, terms, support, part, v, mode, weight):
    for exps, c in terms.items():
        placed = {}
        for sub, b in part(v, tuple(exps[j] for j in support), mode):
            e = list(exps)
            for j, k in zip(support, sub):
                e[j] = k
            placed[tuple(e)] = b
        _add_terms(out, placed, weight * c)


def _laplacian_terms(terms, dim, scale, roots, mode):
    out = {}
    for i in range(dim):
        _add_terms(out, _derivative_terms(_derivative_terms(terms, i), i), scale)
    for support, v, weight in roots:
        _add_factored(out, terms, support, _bracket, v, mode, weight)
    return out


def _oracle_apply(ctx, i, f):
    scale, roots = ctx._laplacian_data(f.mode)
    terms, den = _cleared(f)
    out = _add_terms({}, _derivative_terms(terms, i), scale)
    for support, v, weight in roots:
        if i in support:
            _add_factored(out, terms, support, _quotient, v, f.mode,
                          weight * v[support.index(i)])
    return _restored(f, out, den * (scale or 1))


def _oracle_laplacian(ctx, f):
    scale, roots = ctx._laplacian_data(f.mode)
    terms, den = _cleared(f)
    return _restored(f, _laplacian_terms(terms, f.dim, scale, roots, f.mode),
                     den * (scale or 1))


def _bits(terms):
    """Each coefficient as (type, value), floats by their hex digits."""
    return {e: (type(c), c.hex() if isinstance(c, float) else c) for e, c in terms.items()}


def _random_poly(rng, d, mode, terms=6, max_deg=6):
    out = {}
    for _ in range(terms):
        exps = [0] * d
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(d)] += 1
        out[tuple(exps)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    p = MultiPoly(d, out, EXACT)
    return p if mode == EXACT else p.to_float()


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_matrix_columns_match_the_term_dict_kernel(name):
    ctx = CONTEXTS[name]()
    mode = EXACT if ctx.exact else FLOAT
    unit = 1 if mode == EXACT else 1.0
    scale, roots = ctx._laplacian_data(mode)
    for n in range(8):
        source = monomials_of_degree(ctx.dim, n)
        matrix = _laplacian_matrix(source, scale, roots, mode)
        for k, exps in enumerate(source):
            column = {e: row[k] for e, row in matrix.items() if k in row}
            want = _laplacian_terms({exps: unit}, ctx.dim, scale, roots, mode)
            assert _bits(column) == _bits(want), (n, exps)


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_dunkl_apply_matches_the_term_dict_route(name):
    ctx = CONTEXTS[name]()
    rng = random.Random(f"apply-{name}")
    modes = (EXACT, FLOAT) if ctx.exact else (FLOAT,)
    for _ in range(4):
        for mode in modes:
            f = _random_poly(rng, ctx.dim, mode)
            for i in range(ctx.dim):
                got, want = dunkl_apply(ctx, i, f), _oracle_apply(ctx, i, f)
                assert got.mode == want.mode
                assert _bits(got.terms) == _bits(want.terms), (i, f)


@pytest.mark.parametrize("name", EXACT_CONTEXTS)
def test_exact_laplacian_matches_the_term_dict_route(name):
    ctx = CONTEXTS[name]()
    rng = random.Random(f"laplacian-{name}")
    for _ in range(6):
        f = _random_poly(rng, ctx.dim, EXACT, terms=8)
        got = dunkl_laplacian(ctx, f)
        assert got == _oracle_laplacian(ctx, f)
        assert all(type(c) is Fraction for c in got.terms.values())
