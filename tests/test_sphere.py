import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunklsphere import (
    EXACT,
    FLOAT,
    DunklContext,
    Function1D,
    MultiPoly,
    RootSystem,
    SphereMeasure,
    a_kappa,
    a_kappa_paths,
    even_monomial_coeff,
    exact_sigma_integral,
    harmonic_basis,
    monomials_of_degree,
    node_set,
    pochhammer,
    sphere_surface_area,
    weight_as_polynomial,
)
from dunklsphere import sphere
from dunklsphere.sphere import _gamma_half, _weight_mass_rational, grid_size

# a user root system, as in test_operators: no closed a_kappa at kappa != 0
CUSTOM = RootSystem(2, ((1, 2), (-1, -2)), ((1, 2),), "custom")


# ---------------------------------------------------------------------------
# gamma and unweighted monomial integrals
# ---------------------------------------------------------------------------

def test_gamma_half_matches_math_gamma():
    for j in range(1, 15):
        frac, pw = _gamma_half(j)
        assert abs(float(frac) * math.sqrt(math.pi) ** pw
                   - math.gamma(j / 2.0)) <= 1e-12 * math.gamma(j / 2.0)


def test_surface_areas():
    assert abs(sphere_surface_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_surface_area(3) - 4 * math.pi) < 1e-13
    assert abs(sphere_surface_area(4) - 2 * math.pi ** 2) < 1e-13


def test_even_monomial_coeff_reference():
    # int dS over S^2 = 4 pi
    assert even_monomial_coeff((0, 0, 0), 3) == 4
    # int x1^2 x2^2 dS over S^1 = pi / 4
    assert even_monomial_coeff((2, 2), 2) == Fraction(1, 4)
    # odd exponents vanish
    assert even_monomial_coeff((1, 2), 2) == 0


# ---------------------------------------------------------------------------
# a_kappa
# ---------------------------------------------------------------------------

def test_a_kappa_kappa_zero_is_inverse_area():
    ctx = DunklContext.create("zd2", 3, 0)
    assert abs(a_kappa(ctx) - 1.0 / (4 * math.pi)) < 1e-15


def test_a_kappa_zd2_11():
    # gamma = 2, d = 2: Gamma(3) / (2 Gamma(3/2)^2) = 2 / (pi/2) = 4/pi
    ctx = DunklContext.create("zd2", 2, (1, 1))
    assert abs(a_kappa(ctx) - 4.0 / math.pi) < 1e-14


def test_a_kappa_zd2_half_integers_exact():
    # Gamma(9/2) / (2 Gamma(1) Gamma(3/2) Gamma(2)) = 105/16
    assert a_kappa(DunklContext.create("zd2", 3, ("1/2", 1, "3/2"))) == 6.5625


def test_a_kappa_zd2_past_the_float_gamma_range():
    # Gamma(gamma + d/2) = Gamma(301.5) is far beyond the largest double
    ctx = DunklContext.create("zd2", 3, 100)
    want = math.exp(math.lgamma(301.5) - math.log(2) - 3 * math.lgamma(100.5))
    assert abs(a_kappa(ctx) / 3.277129281803594e144 - 1) <= 1e-12
    assert abs(a_kappa(ctx) / want - 1) <= 1e-12
    assert abs(SphereMeasure(ctx, "tensor").sigma_mass() - 1) <= 1e-12


def test_a_kappa_paths_agree():
    for kappa in [(1, 1), (1, 2), (2, 3)]:
        ctx = DunklContext.create("zd2", 2, kappa)
        paths = a_kappa_paths(ctx)
        assert set(paths) >= {"closed_form", "monomial", "quadrature"}
        vals = list(paths.values())
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-13 * abs(vals[0])


def test_a_kappa_paths_fractional():
    ctx = DunklContext.create("zd2", 3, ("1/2", "1", "3/2"))
    paths = a_kappa_paths(ctx)
    assert "monomial" not in paths          # not a polynomial weight
    ref = paths["closed_form"]
    assert abs(paths["quadrature"] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("family,d,kappa", [
    ("a", 3, 1), ("a", 4, 1), ("a", 4, 2), ("b", 3, (1, 2)), ("b", 4, (2, 1)),
    ("d", 3, 2), ("d", 4, 1),
])
def test_a_kappa_closed_form_against_weight_polynomial(family, d, kappa):
    ctx = DunklContext.create(family, d, kappa)
    want = 1.0 / (float(_weight_mass_rational(ctx)) * math.pi ** (d // 2))
    assert abs(a_kappa(ctx) - want) <= 1e-13 * want


@pytest.mark.parametrize("family,d,kappa,want", [
    ("b", 3, ("1/2", 1), 840), ("d", 4, "1/2", 420),
])
def test_a_kappa_closed_form_exact_rationals(family, d, kappa, want):
    assert abs(a_kappa(DunklContext.create(family, d, kappa)) - want) <= 1e-13 * want


@pytest.mark.parametrize("m,kappa", [(4, ("1/3", 1)), (6, ("1/2", "3/2"))])
def test_a_kappa_closed_form_i2_against_split_quadrature(m, kappa):
    ctx = DunklContext.create("i2", kappa=kappa, order=m)
    roots = [(mpmath.mpf(v[0]), mpmath.mpf(v[1]), float(ctx.kappa.value(v)))
             for v in ctx.root_system.positive]

    def w(t):
        c, s = mpmath.cos(t), mpmath.sin(t)
        return mpmath.fprod(abs(a * c + b * s) ** (2 * k) for a, b, k in roots)

    # split at every multiple of pi / (2 m), where the mirrors lie
    with mpmath.workdps(30):
        mass = mpmath.quad(w, [mpmath.pi * j / (2 * m) for j in range(4 * m + 1)])
        want = float(1 / mass)
    assert abs(a_kappa(ctx) - want) <= 1e-13 * want


@pytest.mark.parametrize("args", [
    ("a", 4, 0), ("b", 3, 0), ("d", 4, 0),
])
def test_a_kappa_at_kappa_zero_is_inverse_area_on_every_family(args):
    # Zd2 as above; I2 lives on the circle, where kappa = 0 makes lambda = 0
    ctx = DunklContext.create(*args)
    want = 1.0 / sphere_surface_area(ctx.dim)
    assert abs(a_kappa(ctx) - want) <= 1e-13 * want


def test_tensor_mass_defect_is_visible():
    # the folded grid misses the weight's kinks on the mirrors, and its mass
    # under the closed a_kappa shows it; the Zd2 Jacobi grid has no defect
    b3 = DunklContext.create("b", 3, ("1/2", 1))
    assert abs(SphereMeasure(b3, "tensor", orders=80).sigma_mass() - 1.0) > 1e-4
    zd2 = DunklContext.create("zd2", 3, ("1/2", 1, "3/2"))
    assert abs(SphereMeasure(zd2, "tensor", orders=80).sigma_mass() - 1.0) <= 1e-12


def test_a_kappa_paths_above_the_degree_cap():
    # D5 at kappa 2 has a weight of degree 80 > DEGREE_CAP: no monomial path
    ctx = DunklContext.create("d", 5, 2)
    paths = a_kappa_paths(ctx, order=12)
    assert set(paths) == {"closed_form", "quadrature"}
    assert paths["closed_form"] == a_kappa(ctx)


@pytest.mark.parametrize("args", [
    ("zd2", 3, ("1/2", 1, 2)), ("a", 5, "1/2"), ("b", 3, ("1/2", 1)),
    ("d", 5, "1/2"), ("d", 5, 2), ("i2", 2, ("1/3", 1), 4), ("i2", 2, "1/2", 5),
])
def test_normalization_builds_no_grid_on_builtin_families(args, nothing_built,
                                                          monkeypatch):
    def expanded(*a, **k):
        raise RuntimeError("the weight polynomial was expanded")
    monkeypatch.setattr(sphere, "weight_as_polynomial", expanded)
    ctx = DunklContext.create(*args)
    assert SphereMeasure(ctx).normalization == a_kappa(ctx) > 0


@pytest.mark.parametrize("family,kappa", [("d", "1/2"), ("a", "1/2"), ("d", 2)])
def test_monte_carlo_mass_beyond_grid_limits(family, kappa):
    ctx = DunklContext.create(family, 5, kappa)
    m = SphereMeasure(ctx, "monte_carlo", mc_samples=20000, seed=1)
    est, se = m.integrate_mc(lambda p: np.ones(p.shape[0]))
    assert m.sigma_mass() == est
    assert abs(est - 1.0) <= 4.0 * se


# ---------------------------------------------------------------------------
# exact integration
# ---------------------------------------------------------------------------

def test_exact_mass_is_one():
    for kappa in [(1, 1), ("1/2", "3/2"), (2, 0)]:
        ctx = DunklContext.create("zd2", 2, kappa)
        one = MultiPoly.constant(2, 1, EXACT)
        assert exact_sigma_integral(ctx, one) == 1
    with pytest.raises(ValueError, match="dim 3"):
        exact_sigma_integral(ctx, MultiPoly.constant(3, 1, EXACT))


def test_exact_monomial_pochhammer():
    # d = 2, kappa = (1, 1): int x1^2 dsigma = (3/2)_1 / (3)_1 = 1/2
    ctx = DunklContext.create("zd2", 2, (1, 1))
    p = MultiPoly.monomial(2, (2, 0), 1, EXACT)
    assert exact_sigma_integral(ctx, p) == Fraction(1, 2)
    # int x1^2 x2^2 dsigma = (3/2)(3/2) / ((3)(4)) = 3/16
    q = MultiPoly.monomial(2, (2, 2), 1, EXACT)
    assert exact_sigma_integral(ctx, q) == Fraction(3, 16)


def test_exact_odd_monomials_vanish():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    p = MultiPoly.monomial(2, (1, 2), 1, EXACT)
    assert exact_sigma_integral(ctx, p) == 0


def test_exact_dual_routes_agree():
    # B2 at kappa (1, 0) has the weight x1^2 x2^2 of Zd2 at (1, 1), so the
    # two contexts give the same measure through different Laplacians
    ctx_b = DunklContext.create("b", 2, (1, 0))   # weight x1^2 x2^2 only
    ctx_z = DunklContext.create("zd2", 2, (1, 1))
    for exps in [(0, 0), (2, 0), (4, 2), (0, 6)]:
        p = MultiPoly.monomial(2, exps, 1, EXACT)
        assert exact_sigma_integral(ctx_b, p) == exact_sigma_integral(ctx_z, p)


def test_exact_float_coefficients():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    p = MultiPoly.monomial(2, (2, 0), 0.5, FLOAT)
    got = exact_sigma_integral(ctx, p)
    assert isinstance(got, float)
    assert abs(got - 0.25) < 1e-15


def test_exact_mass_is_one_for_fractional_general_group():
    ctx = DunklContext.create("b", 2, ("1/2", "1/2"))
    one = MultiPoly.constant(2, 1, EXACT)
    assert exact_sigma_integral(ctx, one) == 1


def _pochhammer_oracle(ctx, poly):
    """Zd2 closed form: each even monomial integrates to
    prod_i (kappa_i + 1/2)_(a_i / 2) / (gamma + d/2)_(|a| / 2)."""
    half, total = Fraction(1, 2), Fraction(0)
    for exps, c in poly.terms.items():
        if not any(a % 2 for a in exps):
            num = math.prod(pochhammer(k + half, a // 2)
                            for k, a in zip(ctx.axis_kappas, exps))
            total += c * num / pochhammer(ctx.gamma_kappa + Fraction(ctx.dim, 2),
                                          sum(exps) // 2)
    return total


def _weight_oracle(ctx, poly, w):
    """Integer kappa: int poly * w d omega / int w d omega on even monomials."""
    def moment(p):
        return sum((c * even_monomial_coeff(e, ctx.dim) for e, c in p.terms.items()),
                   Fraction(0))
    return moment(poly * w) / moment(w)


def _sparse_poly(d, deg, seed, per_degree=6):
    rng = random.Random(seed)
    terms = {}
    for n in range(deg + 1):
        mons = monomials_of_degree(d, n)
        for e in rng.sample(mons, min(per_degree, len(mons))):
            terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(d, terms, EXACT)


@pytest.mark.parametrize("family,d,kappa", [
    ("zd2", 3, ("1/2", "1", "2")), ("zd2", 5, 1), ("a", 4, 1), ("a", 4, 2),
    ("b", 3, (1, 2)), ("d", 4, 1), ("b", 4, (2, 1)),
])
def test_exact_integral_matches_closed_form_oracles(family, d, kappa):
    # the Laplacian route against the Pochhammer product (Zd2) and the
    # weight polynomial (integer kappa), wherever each exists
    ctx = DunklContext.create(family, d, kappa)
    w = None
    if ctx.kappa.is_integer:
        w = weight_as_polynomial(ctx.root_system, ctx.kappa)
    for deg in (6, 8, 10):
        p = _sparse_poly(ctx.dim, deg, seed=deg)
        got = exact_sigma_integral(ctx, p)
        assert isinstance(got, Fraction)
        if ctx.axis_kappas is not None:
            assert got == _pochhammer_oracle(ctx, p), deg
        if w is not None:
            assert got == _weight_oracle(ctx, p, w), deg


@pytest.mark.parametrize("family,kappa", [("a", "1/2"), ("b", "1/2")])
def test_harmonics_of_different_degrees_orthogonal_at_half_kappa(family, kappa):
    ctx = DunklContext.create(family, 3, kappa)
    bases = [harmonic_basis(ctx, n) for n in range(5)]
    for n, m in itertools.combinations(range(5), 2):
        for yn in bases[n].elements:
            for ym in bases[m].elements:
                assert exact_sigma_integral(ctx, yn * ym) == 0, (n, m)


@pytest.mark.parametrize("family,kappa,want,tol", [
    # the weight has kinks on the mirrors, so the grid converges slowly
    ("b", ("1/2", 1), Fraction(-14, 165), 5e-4),
    ("a", "1/2", Fraction(-47, 384), 2e-5),
])
def test_exact_half_kappa_against_tensor_grid(family, kappa, want, tol):
    ctx = DunklContext.create(family, 3, kappa)
    p = MultiPoly(3, {(4, 0, 0): 1, (2, 2, 0): 2, (0, 0, 6): -3,
                      (1, 1, 0): Fraction(1, 2)}, EXACT)
    assert exact_sigma_integral(ctx, p) == want
    grid = SphereMeasure(ctx, "tensor", orders=160).integrate(p)
    assert abs(grid - float(want)) <= tol


def test_exact_float_route_on_i2():
    ctx = DunklContext.create("i2", kappa=1, order=5)
    exact_m = SphereMeasure(ctx, "exact")
    tensor_m = SphereMeasure(ctx, "tensor", orders=200)
    x1sq = MultiPoly.monomial(2, (2, 0), 1, FLOAT)
    assert abs(exact_m.sigma_mass() - 1.0) <= 1e-12
    assert abs(exact_m.integrate(x1sq) - 0.5) <= 1e-12
    assert abs(tensor_m.sigma_mass() - 1.0) <= 1e-12
    assert abs(tensor_m.integrate(x1sq) - 0.5) <= 1e-12
    y2, y3 = harmonic_basis(ctx, 2).elements[0], harmonic_basis(ctx, 3).elements[0]
    assert abs(exact_m.inner_product(y2, y3)) <= 1e-12
    assert abs(exact_m.inner_product(y3, y3) - tensor_m.inner_product(y3, y3)) <= 1e-12
    with pytest.raises(ValueError):
        exact_sigma_integral(ctx, MultiPoly.constant(2, 1, EXACT))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

def _random_poly(d, deg, seed):
    rng = np.random.default_rng(seed)
    p = MultiPoly.zero(d, EXACT)
    from dunklsphere import monomials_of_degree
    for n in range(deg + 1):
        for exps in monomials_of_degree(d, n):
            c = int(rng.integers(-4, 5))
            if c:
                p = p + MultiPoly.monomial(d, exps, Fraction(c), EXACT)
    return p


@pytest.mark.parametrize("kappa", [(1, 1), ("1/2", "3/2")])
def test_exact_vs_tensor_backend(kappa):
    ctx = DunklContext.create("zd2", 2, kappa)
    exact_m = SphereMeasure(ctx, "exact")
    tensor_m = SphereMeasure(ctx, "tensor", orders=60)
    for seed in (0, 1):
        p = _random_poly(2, 6, seed)
        want = float(exact_m.integrate(p))
        got = tensor_m.integrate(p)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_tensor_backend_d3_fractional():
    ctx = DunklContext.create("zd2", 3, ("1/2", "1", "3/2"))
    tensor_m = SphereMeasure(ctx, "tensor", orders=50)
    exact_m = SphereMeasure(ctx, "exact")
    p = _random_poly(3, 4, 2)
    want = float(exact_m.integrate(p))
    assert abs(tensor_m.integrate(p) - want) <= 1e-10 * max(1.0, abs(want))


def test_tensor_general_group_integer_kappa():
    # B2 with integer kappa has a polynomial weight: the folded general grid
    # must agree with the exact route
    ctx = DunklContext.create("b", 2, (1, 2))
    exact_m = SphereMeasure(ctx, "exact")
    tensor_m = SphereMeasure(ctx, "tensor", orders=60)
    p = _random_poly(2, 4, 3)
    want = float(exact_m.integrate(p))
    assert abs(tensor_m.integrate(p) - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("args, order", [
    (("zd2", 3, ("1/2", 0, 2)), 9), (("zd2", 4, 1), 6), (("b", 3, 0), 7),
    (("b", 3, (1, 2)), 7), (("i2", 2, 1, 5), 11),
])
def test_grid_size_counts_the_built_grid(args, order):
    ctx = DunklContext.create(*args)
    pts, wts = SphereMeasure(ctx, "tensor", orders=order).quad_points()
    assert grid_size(ctx, order) == len(pts) == len(wts)


@pytest.mark.parametrize("family,dim,kappa", [("zd2", 2, (1, 1)), ("b", 3, (1, 1))])
@pytest.mark.parametrize("order", [0, -5])
def test_tensor_grid_refuses_an_order_below_one(family, dim, kappa, order):
    # an axis grid read order -5 as 4 (zd2), the angle grid failed inside
    # jacobi_rule (b)
    ctx = DunklContext.create(family, dim, kappa)
    message = f"a tensor grid needs order >= 1, not {order}"
    with pytest.raises(ValueError, match=message):
        grid_size(ctx, order)
    with pytest.raises(ValueError, match=message):
        SphereMeasure(ctx, "tensor", orders=order).quad_points()


def test_grid_size_refuses_before_building():
    # 2 * 80^4 points on Z_2^5 at order 80; nothing is allocated to say so
    with pytest.raises(ValueError, match="a d = 5 tensor grid of order 80 has 81920000 "
                                         "points"):
        grid_size(DunklContext.create("zd2", 5, 0), 80)


def test_zd2_grid_holds_no_copies_of_itself():
    # the (n_u, n_p, d) output is written in place: the traced peak of a
    # d = 4 grid of order 60 stays near the bytes of its points and weights
    ctx = DunklContext.create("zd2", 4, (1, "1/2", 0, 2))
    measure = SphereMeasure(ctx, "tensor", orders=60)
    tracemalloc.start()
    try:
        pts, wts = measure.quad_points()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (pts.nbytes + wts.nbytes)


def _count_grids(monkeypatch):
    calls = []
    grid = sphere._tensor_grid

    def counted(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(sphere, "_tensor_grid", counted)
    return calls


def test_quad_points_builds_its_grid_once(monkeypatch):
    # B3 has a closed a_kappa: normalization builds no grid, and quad_points
    # builds one, scaled by the closed form
    ctx = DunklContext.create("b", 3, ("1/2", "1/2"))
    _, raw = sphere._tensor_grid(ctx, 12)
    calls = _count_grids(monkeypatch)
    measure = SphereMeasure(ctx, "tensor", orders=12)
    assert measure.normalization == a_kappa(ctx)
    assert calls == []
    _, wts = measure.quad_points()
    measure.quad_points()
    assert len(calls) == 1
    assert np.array_equal(wts, a_kappa(ctx) * raw)


def test_user_root_system_normalizes_its_one_grid_by_its_sum(monkeypatch):
    # a user root system at kappa != 0 has no closed a_kappa: the measure
    # builds one grid and normalizes it by its own sum, in either call order
    ctx = DunklContext.from_root_system(CUSTOM, 1)
    _, raw = sphere._tensor_grid(ctx, 12)
    calls = _count_grids(monkeypatch)
    measure = SphereMeasure(ctx, "tensor", orders=12)
    _, wts = measure.quad_points()
    assert measure.normalization == 1.0 / raw.sum()
    assert np.array_equal(wts, measure.normalization * raw)
    assert len(calls) == 1
    other = SphereMeasure(ctx, "tensor", orders=12)
    assert other.normalization == measure.normalization
    other.quad_points()
    assert len(calls) == 2


def test_general_grid_rule_too_large_raises_at_once():
    # the d = 2 grid of order 20000 has 20000 points, under the grid limit,
    # but its Gauss-Legendre rule needs a 20000 x 20000 Jacobi matrix (3 GiB);
    # a child capped at 1.5 GiB of address space fails fast without the count
    cap = 3 * 2 ** 29
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
         "from dunklsphere import DunklContext, SphereMeasure\n"
         "ctx = DunklContext.create('i2', kappa=1, order=5)\n"
         "try:\n"
         "    SphereMeasure(ctx, 'tensor', orders=20000).quad_points()\n"
         "except ValueError as exc:\n"
         "    print(exc)\n"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "20000 x 20000 Jacobi matrix" in proc.stdout


def test_monte_carlo_mass_and_determinism():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    m = SphereMeasure(ctx, "monte_carlo", mc_samples=200_000, seed=11)
    one = MultiPoly.constant(2, 1, EXACT)
    est, se = m.integrate_mc(one)
    assert abs(est - 1.0) <= 4.0 * se
    est2, se2 = SphereMeasure(ctx, "monte_carlo", mc_samples=200_000,
                              seed=11).integrate_mc(one)
    assert est == est2 and se == se2


def test_monte_carlo_lp_norm_needs_no_grid():
    """Z_2^6 has no tensor grid at the default order, and Monte Carlo needs
    none: ||x1^2||_2^2 = int x1^4 d sigma, within 4 standard errors of the
    exact integral."""
    ctx = DunklContext.create("zd2", 6, 1)
    m = SphereMeasure(ctx, "monte_carlo", mc_samples=100_000, seed=1)
    quartic = MultiPoly.monomial(6, (4, 0, 0, 0, 0, 0))
    got = m.lp_norm(MultiPoly.monomial(6, (2, 0, 0, 0, 0, 0)), 2) ** 2
    _, se = m.integrate_mc(quartic)
    assert abs(got - float(exact_sigma_integral(ctx, quartic))) <= 4.0 * se


def test_monte_carlo_requires_seed():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    with pytest.raises(ValueError):
        SphereMeasure(ctx, "monte_carlo")


@pytest.mark.parametrize("count", [0, -5])
def test_monte_carlo_refuses_a_sample_count_below_one(count):
    # integrate_mc divided by zero samples: ZeroDivisionError, not a message
    ctx = DunklContext.create("zd2", 2, (1, 1))
    with pytest.raises(ValueError) as err:
        SphereMeasure(ctx, "monte_carlo", mc_samples=count, seed=1)
    assert str(err.value) == f"mc_samples must be >= 1, not {count}"


def test_exact_backend_rejects_callables():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    m = SphereMeasure(ctx, "exact")
    with pytest.raises(TypeError):
        m.integrate(lambda pts: np.ones(pts.shape[0]))


# ---------------------------------------------------------------------------
# norms, inner products, gram
# ---------------------------------------------------------------------------

def test_lp_norm_even_p_exact_vs_quadrature():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    exact_m = SphereMeasure(ctx, "exact")
    tensor_m = SphereMeasure(ctx, "tensor", orders=60)
    p = _random_poly(2, 3, 5)
    for q in (2, 4):
        a = exact_m.lp_norm(p, q)
        b = tensor_m.lp_norm(p, q)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_lp_norm_exact_complex_float_poly():
    # |p|^2 has complex coefficients; its integral is real
    ctx = DunklContext.create("zd2", 2, (1, 1))
    p = MultiPoly(2, {(1, 0): 1 + 2j, (0, 1): 0.5}, FLOAT)
    got = SphereMeasure(ctx, "exact").lp_norm(p, 2)
    want = SphereMeasure(ctx, "tensor").lp_norm(p, 2)
    assert abs(want - math.sqrt(2.625)) <= 1e-12
    assert abs(got - want) <= 1e-12


def test_lp_norm_odd_p_falls_back():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    m = SphereMeasure(ctx, "exact")
    val = m.lp_norm(MultiPoly.constant(2, 1, EXACT), 3)
    assert abs(val - 1.0) <= 1e-12


def test_gram_is_symmetric_and_diagonal_positive():
    ctx = DunklContext.create("zd2", 2, (1, 2))
    m = SphereMeasure(ctx, "exact")
    basis = harmonic_basis(ctx, 3)
    g = m.gram(basis)
    size = len(basis.elements)
    for i in range(size):
        assert g[i][i] > 0
        for j in range(size):
            assert g[i][j] == g[j][i]


def test_inner_product_conjugates_second_argument():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    m = SphereMeasure(ctx, "tensor", orders=40)
    p = MultiPoly.constant(2, 1 + 1j, FLOAT)
    q = MultiPoly.constant(2, 1j, FLOAT)
    got = m.inner_product(p, q)
    assert abs(got - (1 + 1j) * (-1j)) <= 1e-12


@pytest.mark.parametrize("backend,opts", [("tensor", {"orders": 40}),
                                          ("monte_carlo", {"mc_samples": 20000, "seed": 5})])
def test_inner_product_of_callables_is_integrate_of_f_times_conj_h(backend, opts):
    ctx = DunklContext.create("zd2", 3, (1, Fraction(1, 2), 2))
    m = SphereMeasure(ctx, backend, **opts)
    p = MultiPoly(3, {(2, 0, 0): 1 + 2j, (0, 1, 1): 3, (0, 0, 0): -0.5}, FLOAT)
    q = MultiPoly(3, {(0, 2, 0): 2j, (0, 1, 1): 1, (0, 0, 2): 1}, FLOAT)

    def f_conj_h(pts):
        return p.eval_many(pts) * np.conjugate(q.eval_many(pts))

    want = m.integrate(f_conj_h)
    assert m.inner_product(p.eval_many, q.eval_many) == want
    assert m.inner_product(p, q.eval_many) == want
    # per-axis Jacobi rules give the polynomial inner product to round-off;
    # the imaginary part of the truth is far above either bound
    truth = exact_sigma_integral(ctx, p * q.conjugate())
    bound = 1e-12 if backend == "tensor" else 4.0 * m.integrate_mc(f_conj_h)[1]
    assert abs(want - truth) <= bound and abs(truth.imag) > 10 * bound


def test_exact_inner_product_of_a_callable_is_refused_by_integrate():
    ctx = DunklContext.create("zd2", 2, (1, 1))
    one = MultiPoly.constant(2, 1, EXACT)
    with pytest.raises(TypeError, match="^exact backend integrates polynomials only$") as err:
        SphereMeasure(ctx, "exact").inner_product(one, one.eval_many)
    assert err.traceback[-1].name == "integrate"


# ---------------------------------------------------------------------------
# node sets
# ---------------------------------------------------------------------------

def test_spiral_circle_nodes():
    pts = node_set(2, 8)
    assert np.allclose(pts[0], [1.0, 0.0])
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert pts.shape == (8, 2)


def test_spiral_sphere_nodes():
    pts = node_set(3, 50)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    again = node_set(3, 50)
    assert np.array_equal(pts, again)


def test_random_nodes_seeded():
    a = node_set(4, 10, "uniform_random", seed=3)
    b = node_set(4, 10, "uniform_random", seed=3)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        node_set(4, 10, "uniform_random")


def test_spiral_high_dimension_rejected():
    with pytest.raises(ValueError):
        node_set(4, 10, "spiral")


@pytest.mark.parametrize("scheme", ["random", "generalized_spiral"])
def test_unknown_node_scheme_rejected(scheme):
    with pytest.raises(ValueError, match="unknown node scheme"):
        node_set(2, 10, scheme, seed=1)
