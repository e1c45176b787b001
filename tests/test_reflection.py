import math
from fractions import Fraction

import numpy as np
import pytest

import dunklsphere
import dunklsphere.cli
from dunklsphere import (
    EXACT,
    DunklContext,
    InvalidMultiplicityError,
    MultiPoly,
    RootSystem,
    UnsupportedGroupError,
    builtin_root_system,
    generate_group,
    harmonic_basis,
    harmonic_space_dimension,
    reflection_matrix,
    root_orbits,
    validate_multiplicity,
    weight_as_polynomial,
    weight_values,
)


def _mult(rs, kappa):
    return validate_multiplicity(rs, kappa)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def test_reflection_is_involution():
    v = (Fraction(1), Fraction(-2), Fraction(3))
    s = reflection_matrix(v)
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert _matmul(s, s) == eye


def test_reflection_negates_root_fixes_orthogonal():
    v = (Fraction(2), Fraction(1))
    s = reflection_matrix(v)
    sv = tuple(sum(s[i][j] * v[j] for j in range(2)) for i in range(2))
    assert sv == (-v[0], -v[1])
    w = (Fraction(-1), Fraction(2))  # orthogonal to v
    sw = tuple(sum(s[i][j] * w[j] for j in range(2)) for i in range(2))
    assert sw == w


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,dim,order,expected", [
    ("zd2", 2, None, 4),
    ("zd2", 3, None, 8),
    ("b", 2, None, 8),
    ("b", 3, None, 48),
    ("a", 3, None, 6),       # symmetric group on 3 letters
    ("a", 4, None, 24),
    ("d", 3, None, 24),
    ("i2", 2, 3, 6),
    ("i2", 2, 5, 10),
])
def test_group_orders(family, dim, order, expected):
    rs = builtin_root_system(family, dim, order=order)
    group = generate_group(rs)
    assert len(group.elements) == expected


def test_builtin_systems_validate():
    for family, dim, order in [("zd2", 3, None), ("a", 3, None),
                               ("b", 3, None), ("d", 4, None), ("i2", 2, 4)]:
        root_orbits(builtin_root_system(family, dim, order=order))


def test_positive_roots_closed_under_group():
    rs = builtin_root_system("b", 2)
    assert len(rs.positive) == 4
    assert len(rs.roots) == 8


def test_unknown_family_raises():
    with pytest.raises(UnsupportedGroupError):
        builtin_root_system("h", 3)


def test_i2_requires_order():
    with pytest.raises(ValueError):
        builtin_root_system("i2", 2, order=None)


@pytest.mark.parametrize("family, dim, order", [
    ("i2", 2, None), ("i2", 2, 2), ("a", 1, None), ("b", 1, None), ("d", 2, None),
    ("zd2", 0, None), ("zd2", None, None), ("i2", 2, 3.5), ("a", 3.0, None),
])
def test_parameters_that_name_no_group_are_configuration_errors(family, dim, order):
    # a known family outside its range, or at a dimension or order that is no
    # integer, is a plain ValueError, not an unsupported group
    with pytest.raises(ValueError) as info:
        builtin_root_system(family, dim, order=order)
    assert not isinstance(info.value, UnsupportedGroupError)


def test_custom_root_table_is_counted_before_it_is_built():
    # 2897 positive roots of a custom system: 16,785,218 reflection images
    pos = tuple((1, k) for k in range(2897))
    rs = RootSystem(2, pos + tuple((-1, -k) for _, k in pos), pos, "custom")
    with pytest.raises(ValueError, match="2897 x 5794 table of reflection images"):
        root_orbits(rs)


def test_missing_negatives_rejected_at_construction():
    rs = builtin_root_system("zd2", 2)
    with pytest.raises(ValueError):
        type(rs)(dim=2, roots=rs.positive, positive=rs.positive,
                 family=None, exact=True)


# ---------------------------------------------------------------------------
# orbits and multiplicities
# ---------------------------------------------------------------------------

def test_zd2_orbits_are_axes():
    rs = builtin_root_system("zd2", 3)
    orbits = root_orbits(rs)
    assert len(orbits) == 3


def test_b2_has_two_orbits():
    rs = builtin_root_system("b", 2)
    assert len(root_orbits(rs)) == 2


def test_a3_single_orbit():
    rs = builtin_root_system("a", 3)
    assert len(root_orbits(rs)) == 1


def _orbits_from_group(rs):
    """The orbit partition read off the group's elements: the oracle."""
    elements = generate_group(rs).elements
    key_to_root = {_key(v): v for v in rs.roots}
    seen, orbits = set(), []
    for v in rs.positive:
        if _key(v) in seen:
            continue
        members = {}
        for g in elements:
            w = tuple(sum(a * b for a, b in zip(row, v)) for row in g)
            members.setdefault(_key(w), key_to_root[_key(w)])
        seen.update(members)
        orbits.append(list(members.values()))
    return orbits


def _key(v):
    return tuple(x if isinstance(x, Fraction) else round(x / 1e-10) for x in v)


@pytest.mark.parametrize("family,dim,order", [
    ("zd2", 2, None), ("zd2", 3, None), ("zd2", 4, None),
    ("a", 3, None), ("a", 4, None),
    ("b", 2, None), ("b", 3, None), ("b", 4, None),
    ("d", 3, None), ("d", 4, None),
    ("i2", 2, 4), ("i2", 2, 5), ("i2", 2, 6), ("i2", 2, 8),
])
def test_root_orbits_match_group_orbits(family, dim, order):
    rs = builtin_root_system(family, dim, order=order)
    got, want = root_orbits(rs), _orbits_from_group(rs)
    assert [orb[0] for orb in got] == [orb[0] for orb in want]
    assert [sorted(map(_key, orb)) for orb in got] == \
        [sorted(map(_key, orb)) for orb in want]


def _matrix_bfs_orbits(rs):
    """root_orbits as it was first written: a BFS that applies each
    reflection matrix s_v = I - 2 v v^T / <v, v> to every orbit member, keyed
    by Fraction tuples (float roots: the 1e-10 quantization).  The oracle
    for the reflection formula; integral matrix and root entries are ints,
    which only makes the same products faster."""
    def small(x):
        return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x

    def key(w):
        if rs.exact:
            return tuple(Fraction(x) for x in w)
        return tuple(int(round(float(x) / 1e-10)) for x in w)

    gens = [tuple(tuple(small(x) for x in row) for row in reflection_matrix(v))
            for v in rs.positive]
    key_to_root = {key(v): v for v in rs.roots}
    assigned, orbits = set(), []
    for v in rs.positive:
        if key(v) in assigned:
            continue
        orbit = [v]
        assigned.add(key(v))
        for w in orbit:
            w = tuple(small(x) for x in w)
            for s in gens:
                wk = key(tuple(sum(a * b for a, b in zip(row, w)) for row in s))
                if wk not in assigned:
                    assigned.add(wk)
                    orbit.append(key_to_root[wk])
        orbits.append(orbit)
    return orbits


def _system(pos):
    """The root system of the positive roots pos (as Fractions) and their
    negatives."""
    pos = tuple(tuple(Fraction(c) for c in v) for v in pos)
    return RootSystem(len(pos[0]), pos + tuple(tuple(-c for c in v) for v in pos), pos)


def _rescaled_b2():
    """B2 with long roots 3(e_1 +- e_2): 2 <v, w> / <v, v> = 1/3 for a long v
    and a short w, so the reflection step leaves the integers."""
    return _system([(1, 0), (0, 1), (3, -3), (3, 3)])


@pytest.mark.parametrize("family,dim,order", [
    *[("zd2", d, None) for d in range(2, 7)],
    *[("a", d, None) for d in range(2, 7)],
    *[("b", d, None) for d in range(2, 7)],
    *[("d", d, None) for d in range(3, 7)],
    *[("i2", 2, m) for m in range(3, 9)],
])
def test_root_orbits_match_matrix_bfs(family, dim, order):
    rs = builtin_root_system(family, dim, order=order)
    assert root_orbits(rs) == _matrix_bfs_orbits(rs)


def test_root_orbits_of_rescaled_b2():
    rs = _rescaled_b2()
    got = root_orbits(rs)
    assert got == _matrix_bfs_orbits(rs)
    assert [len(orb) for orb in got] == [4, 4]
    assert all(type(c) is Fraction for orb in got for v in orb for c in v)
    assert validate_multiplicity(rs, ["1/2", 2]).value((3, 3)) == 2


@pytest.mark.parametrize("family,dim,order,sizes", [
    *[("zd2", d, None, [2] * d) for d in range(1, 9)],
    *[("a", d, None, [d * (d - 1)]) for d in range(2, 9)],
    *[("b", d, None, [2 * d, 2 * d * (d - 1)]) for d in range(2, 9)],
    *[("d", d, None, [2 * d * (d - 1)]) for d in range(3, 9)],
    *[("i2", 2, m, [2 * m] if m % 2 else [m, m]) for m in range(3, 13)],
])
def test_root_orbit_sizes_closed_form(family, dim, order, sizes):
    rs = builtin_root_system(family, dim, order=order)
    assert [len(orb) for orb in root_orbits(rs)] == sizes


@pytest.mark.parametrize("rs,message", [
    (RootSystem(2, ((Fraction(1), Fraction(0)),) * 2, ((Fraction(1), Fraction(0)),)),
     "duplicate roots"),
    (RootSystem(2, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
                ((Fraction(1), Fraction(0)),)),
     "root set not symmetric: -(Fraction(1, 1), Fraction(0, 1)) missing"),
    (_system([(1, 0), (2, 0)]),
     "roots (Fraction(1, 1), Fraction(0, 1)) and (Fraction(2, 1), Fraction(0, 1)) "
     "are collinear but not opposite"),
    (_system([(1, 0), (1, 1)]),
     "reflection through (Fraction(1, 1), Fraction(0, 1)) does not preserve the root set"),
    (_system([(1, 0), (0, 1), (3, -2), (3, 2)]),
     "reflection through (Fraction(3, 1), Fraction(-2, 1)) does not preserve the root set"),
    (RootSystem(2, _system([(1, 0), (0, 1)]).roots, ((1, 0), (-1, 0))),
     "positive subsystem must contain one root per +- pair"),
])
def test_validate_root_system_rejects(rs, message):
    """root_orbits checks the root-system axioms as it walks the orbits."""
    with pytest.raises(ValueError) as err:
        root_orbits(rs)
    assert str(err.value) == message


def test_contexts_refuse_a_non_reduced_system():
    """{+-e1, +-2e1, +-e2} permutes under its reflections but is not reduced,
    so it has no Dunkl operators; every context runs the root-system check."""
    with pytest.raises(ValueError) as err:
        DunklContext.from_root_system(_system([(1, 0), (2, 0), (0, 1)]), 1)
    assert str(err.value) == (
        "roots (Fraction(1, 1), Fraction(0, 1)) and (Fraction(2, 1), Fraction(0, 1)) "
        "are collinear but not opposite")


def test_multiplicity_lookup_takes_int_roots():
    ctx = DunklContext.create("b", 3, (1, 2))
    for v in ctx.root_system.roots:
        as_ints = tuple(int(c) for c in v)
        assert ctx.kappa.value(as_ints) == ctx.kappa.value(v)
    assert ctx.kappa.value((0, 1, -1)) == 2
    with pytest.raises(KeyError):
        ctx.kappa.value((1, 1, 1))


@pytest.mark.parametrize("family,kappa,sizes,lam", [
    ("d", 1, [40], Fraction(43, 2)),
    ("b", (1, 2), [10, 40], Fraction(93, 2)),
])
def test_rank_five_contexts(family, kappa, sizes, lam):
    ctx = DunklContext.create(family, 5, kappa)
    assert [len(orb) for orb in root_orbits(ctx.root_system)] == sizes
    assert ctx.lambda_kappa == lam
    assert len(harmonic_basis(ctx, 2).elements) == harmonic_space_dimension(5, 2)


def test_contexts_never_build_the_group(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("a context built the reflection group")

    for mod in (dunklsphere, dunklsphere.reflection, dunklsphere.operators,
                dunklsphere.sphere, dunklsphere.fundamentality, dunklsphere.cli):
        if hasattr(mod, "generate_group"):
            monkeypatch.setattr(mod, "generate_group", boom)
    for family, dim, kappa, order in [("zd2", 3, (1, 0, 2), None),
                                      ("a", 4, 1, None), ("b", 3, (1, 2), None),
                                      ("d", 4, 1, None), ("i2", 2, (1, 2), 6)]:
        DunklContext.create(family, dim, kappa, order=order)
    code = dunklsphere.cli.main(["fundamental", "--family", "b", "-d", "3",
                                 "--kappa", "1/2,1/2", "--g", "exp", "-N", "4"])
    assert code == 0
    assert "FUNDAMENTAL_UP_TO_N" in capsys.readouterr().out


def test_multiplicity_forms():
    rs = builtin_root_system("zd2", 2)
    k_scalar = _mult(rs, 1)
    k_seq = _mult(rs, [1, 1])
    assert k_scalar.orbit_values == k_seq.orbit_values
    k_frac = _mult(rs, ["1/2", "3/2"])
    assert k_frac.orbit_values == (Fraction(1, 2), Fraction(3, 2))


@pytest.mark.parametrize("make", [
    lambda rs: {rs.positive[0]: 1, rs.positive[2]: 2},
    lambda rs: {"1": 5, "2": 7},    # keys that read as numbers
    lambda rs: {1, 2},
], ids=["root-keys", "number-keys", "set"])
def test_multiplicity_mapping_is_not_a_form(make):
    # values come as one scalar or a list or tuple with one per orbit, in
    # root_orbits order; no other container is read as a per-orbit list
    rs = builtin_root_system("b", 2)
    with pytest.raises(InvalidMultiplicityError, match="cannot interpret multiplicity"):
        _mult(rs, make(rs))


def test_multiplicity_negative_rejected():
    rs = builtin_root_system("zd2", 2)
    with pytest.raises(InvalidMultiplicityError):
        _mult(rs, -1)


def test_multiplicity_wrong_length_rejected():
    rs = builtin_root_system("zd2", 2)
    with pytest.raises(InvalidMultiplicityError):
        _mult(rs, [1, 2, 3])


def test_multiplicity_value_lookup():
    rs = builtin_root_system("zd2", 2)
    kappa = _mult(rs, [1, 2])
    assert kappa.value(rs.positive[0]) == 1
    assert kappa.value(rs.positive[1]) == 2


# ---------------------------------------------------------------------------
# gamma_kappa and lambda_kappa
# ---------------------------------------------------------------------------

def test_constants_zd2():
    ctx = DunklContext.create("zd2", 2, [1, 2])
    assert ctx.gamma_kappa == 3
    assert ctx.lambda_kappa == 3       # gamma + (d - 2)/2 with d = 2
    assert isinstance(ctx.lambda_kappa, Fraction)


def test_constants_kappa_zero_d3():
    assert DunklContext.create("zd2", 3, 0).lambda_kappa == Fraction(1, 2)


def test_lambda_positive_required():
    with pytest.raises(ValueError) as err:
        DunklContext.create("zd2", 2, 0)
    assert str(err.value) == ("lambda = gamma + (d-2)/2 = 0 must be positive "
                              "(d = 2, gamma = 0)")


def test_b2_gamma_counts_orbit_sizes():
    # two axis roots with kappa 1, two diagonal roots with kappa 2
    assert DunklContext.create("b", 2, [1, 2]).gamma_kappa == 2 * 1 + 2 * 2


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_homogeneity():
    ctx = DunklContext.create("zd2", 2, [1, 2])
    rs, kappa, gamma = ctx.root_system, ctx.kappa, float(ctx.gamma_kappa)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    for t in (0.5, 2.0, 3.7):
        w1 = weight_values(rs, kappa, (t * x)[None, :])[0]
        w0 = weight_values(rs, kappa, x[None, :])[0]
        assert abs(w1 - t ** (2 * gamma) * w0) <= 1e-10 * abs(w1)


def test_weight_group_invariance():
    rs = builtin_root_system("b", 2)
    kappa = _mult(rs, ["1/2", "3/2"])
    group = generate_group(rs)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2)
    base = weight_values(rs, kappa, x[None, :])[0]
    for el in group.elements:
        gx = np.array([[float(el[i][j]) for j in range(2)] for i in range(2)]) @ x
        val = weight_values(rs, kappa, gx[None, :])[0]
        assert abs(val - base) <= 1e-10 * max(1.0, abs(base))


def test_weight_polynomial_matches_pointwise():
    rs = builtin_root_system("zd2", 2)
    kappa = _mult(rs, [1, 2])
    w = weight_as_polynomial(rs, kappa)
    assert w.mode == EXACT
    pts = np.random.default_rng(3).uniform(-1, 1, (25, 2))
    direct = weight_values(rs, kappa, pts)
    assert np.allclose(w.to_float().eval_many(pts), direct, rtol=1e-12)


def test_weight_polynomial_needs_integer_kappa():
    rs = builtin_root_system("zd2", 2)
    kappa = _mult(rs, ["1/2", "1"])
    with pytest.raises(ValueError):
        weight_as_polynomial(rs, kappa)


def test_weight_eval_exact_for_rational_input():
    rs = builtin_root_system("zd2", 2)
    kappa = _mult(rs, [1, 2])
    x = (Fraction(1, 2), Fraction(1, 3))
    val = weight_as_polynomial(rs, kappa).eval(x)
    assert val == Fraction(1, 2) ** 2 * Fraction(1, 3) ** 4
    assert weight_values(rs, kappa, [x])[0] == pytest.approx(float(val), rel=1e-15)


def test_group_elements_are_orthogonal():
    rs = builtin_root_system("i2", 2, order=5)
    group = generate_group(rs)
    for el in group.elements:
        m = np.array(el, dtype=float)
        assert np.allclose(m @ m.T, np.eye(2), atol=1e-10)
