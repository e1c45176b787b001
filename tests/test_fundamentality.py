import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dunklsphere import (
    FUNDAMENTAL,
    INDETERMINATE_VERDICT,
    NOT_FUNDAMENTAL,
    DunklContext,
    Function1D,
    FunkHeckeTable,
    MultiPoly,
    SphereMeasure,
    density_demo,
    funk_hecke_residual,
    funk_hecke_table,
    is_fundamental,
    kernel_translate_batch,
    lambda_coefficient,
    lp_norm_segment,
    operator_norm_check,
    UnsupportedGroupError,
    parse_function,
    translate_as_polynomial,
    union_fundamental,
)
from dunklsphere import fundamentality, gegenbauer, sphere

CTX = DunklContext.create("zd2", 2, (1, 1))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_constant_kills_positive_degrees():
    rep = is_fundamental(CTX, parse_function("poly 1"), n_max=8)
    assert rep.verdict == NOT_FUNDAMENTAL
    assert list(rep.zero_witnesses) == list(range(1, 9))


def test_identity_keeps_only_degree_one():
    rep = is_fundamental(CTX, parse_function("poly 0,1"), n_max=8)
    assert rep.verdict == NOT_FUNDAMENTAL
    assert list(rep.zero_witnesses) == [0] + list(range(2, 9))


def test_gegenbauer_mode_survives_alone():
    lam = CTX.lambda_kappa
    g = Function1D.gegenbauer_poly(3, lam)
    rep = is_fundamental(CTX, g, n_max=8)
    assert rep.verdict == NOT_FUNDAMENTAL
    assert 3 not in rep.zero_witnesses
    assert set(rep.zero_witnesses) == {0, 1, 2, 4, 5, 6, 7, 8}


def test_exp_is_fundamental():
    rep = is_fundamental(CTX, parse_function("exp"), n_max=12)
    assert rep.verdict == FUNDAMENTAL
    assert list(rep.zero_witnesses) == []
    assert list(rep.indeterminate_degrees) == []


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_verdict_independent_of_p(p):
    rep = is_fundamental(CTX, parse_function("poly 1,0,-2"), n_max=6, p=p)
    assert rep.p == p
    base = is_fundamental(CTX, parse_function("poly 1,0,-2"), n_max=6)
    assert rep.verdict == base.verdict
    assert rep.zero_witnesses == base.zero_witnesses


@pytest.mark.parametrize("p", [float("nan"), math.inf, 0.5])
def test_library_refuses_p_outside_one_to_infinity(p):
    g = parse_function("exp")
    with pytest.raises(ValueError, match="p must"):
        is_fundamental(CTX, g, p=p)
    with pytest.raises(ValueError, match="p must"):
        operator_norm_check(CTX, g, p=p)
    with pytest.raises(ValueError, match="p must"):
        lp_norm_segment(g, p, CTX.lambda_kappa)
    y = MultiPoly.monomial(2, (2, 0), 3)
    for backend in ("tensor", "exact"):
        with pytest.raises(ValueError, match="p must"):
            SphereMeasure(CTX, backend).lp_norm(y, p)


def test_report_serialization():
    rep = is_fundamental(CTX, parse_function("exp"), n_max=5)
    doc = rep.to_json_dict()
    assert doc["schema_version"] == "2"
    assert doc["kind"] == "fundamentality"
    assert doc["verdict"] == FUNDAMENTAL
    assert doc["n_max"] == 5
    json.dumps(doc)  # must be serializable as-is
    csv_text = rep.to_csv_text()
    assert csv_text.splitlines()[0] == "n,re,im,error_bound,flag"
    assert len(csv_text.splitlines()) == 7


def test_blackbox_gives_honest_indeterminate_or_zero():
    # a callable has no closed form: tolerance decisions only; the tiny
    # high-degree coefficients must not be declared NONZERO
    g = Function1D.from_callable(lambda t: np.exp(t) + 1e-5 * np.sin(1e6 * t))
    rep = is_fundamental(CTX, g, n_max=12)
    assert rep.verdict in (INDETERMINATE_VERDICT, NOT_FUNDAMENTAL)


# ---------------------------------------------------------------------------
# unions
# ---------------------------------------------------------------------------

def test_union_cosh_sinh_is_fundamental():
    parts = [parse_function("cosh"), parse_function("sinh")]
    for g in parts:
        solo = is_fundamental(CTX, g, n_max=10)
        assert solo.verdict == NOT_FUNDAMENTAL
    rep = union_fundamental(CTX, parts, n_max=10)
    assert rep.verdict == FUNDAMENTAL
    assert len(rep.member_reports) == 2
    assert list(rep.member_reports[0].zero_witnesses) == [1, 3, 5, 7, 9]
    assert list(rep.member_reports[1].zero_witnesses) == [0, 2, 4, 6, 8, 10]


def test_union_shared_zeros_detected():
    parts = [parse_function("poly 1"), parse_function("poly 0,1")]
    rep = union_fundamental(CTX, parts, n_max=8)
    assert rep.verdict == NOT_FUNDAMENTAL
    assert list(rep.zero_witnesses) == list(range(2, 9))


def test_union_report_shapes():
    rep = union_fundamental(
        CTX, [parse_function("cosh"), parse_function("sinh")], n_max=4)
    doc = rep.to_json_dict()
    assert doc["kind"] == "union_fundamentality"
    assert len(doc["members"]) == 2
    assert len(doc["aggregate_abs"]) == 5
    lines = rep.to_csv_text().splitlines()
    assert lines[0] == "n,aggregate_abs,aggregate_error,flag"
    assert len(lines) == 6


# ---------------------------------------------------------------------------
# Funk-Hecke residuals
# ---------------------------------------------------------------------------

def test_funk_hecke_small_residual_weighted():
    rep = funk_hecke_residual(CTX, parse_function("exp"), 2,
                              orders=50, x_count=4, quad_order=40)
    assert "quadrature" in rep.residual_by_route
    for val in rep.residual_by_route.values():
        assert val <= 1e-8
    assert rep.coefficient != 0


def test_funk_hecke_dual_routes_for_polynomials():
    rep = funk_hecke_residual(CTX, parse_function("poly 0,1,0,2"), 3,
                              orders=50, x_count=4, quad_order=40)
    assert set(rep.residual_by_route) == {"quadrature", "translate"}
    for val in rep.residual_by_route.values():
        assert val <= 1e-9


def test_funk_hecke_kappa_zero_d3():
    ctx = DunklContext.create("zd2", 3, 0)
    rep = funk_hecke_residual(ctx, parse_function("poly 0,0,0,1"), 3,
                              orders=40, x_count=4, quad_order=40)
    for val in rep.residual_by_route.values():
        assert val <= 1e-9


@pytest.mark.parametrize("family,dim,kappa,g,routes", [
    ("zd2", 3, ("1/2", 0, 2), "exp", {"quadrature"}),
    ("zd2", 3, 0, "poly 1,1,1,1", {"quadrature", "translate"}),
    ("b", 3, 0, "exp", {"quadrature"}),
])
def test_funk_hecke_table_matches_per_degree_calls(family, dim, kappa, g, routes):
    # kernel rows shared by all degrees give the reports of one call per degree
    ctx = DunklContext.create(family, dim, kappa)
    fn = parse_function(g, ctx.lambda_kappa)
    opts = dict(orders=24, x_count=3, quad_order=16)
    table = funk_hecke_table(ctx, fn, range(5), **opts)
    assert [r.n for r in table] == [0, 1, 2, 3, 4]
    for n, rep in enumerate(table):
        assert rep == funk_hecke_residual(ctx, fn, n, **opts)
        assert set(rep.residual_by_route) == routes


def test_funk_hecke_table_takes_its_coefficients_from_one_call(monkeypatch):
    # one closed-form pass serves every degree of the table, with the values
    # lambda_coefficient gives degree by degree
    calls = []
    closed_form = gegenbauer._closed_form

    def counted(*args, **kwargs):
        calls.append(args)
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(gegenbauer, "_closed_form", counted)
    g = parse_function("exp")
    table = funk_hecke_table(CTX, g, range(7), orders=16, x_count=2, quad_order=12)
    assert len(calls) == 1
    for rep in table:
        assert (rep.coefficient, rep.coefficient_error) == lambda_coefficient(
            g, rep.n, CTX.lambda_kappa)


@pytest.mark.parametrize("call", [
    lambda ctx, g: funk_hecke_table(ctx, g, (0, 1)),
    lambda ctx, g: density_demo(ctx, g, 1, (6, 12)),
    lambda ctx, g: operator_norm_check(ctx, g),
])
def test_kernel_users_refuse_unsupported_groups_first(call, unsupported, nothing_built):
    with pytest.raises(UnsupportedGroupError):
        call(unsupported[1], parse_function("exp"))


def test_density_refuses_a_huge_node_set_before_building(nothing_built):
    with pytest.raises(ValueError, match="4097 x 4097 Gram matrix"):
        density_demo(CTX, parse_function("exp"), 1, (6, 4097))


@pytest.mark.parametrize("call", [
    lambda ctx, g: funk_hecke_table(ctx, g, (0,), orders=80, x_count=24),
    lambda ctx, g: density_demo(ctx, g, 1, (6, 24), orders=80, scheme="uniform_random",
                                seed=1),
])
def test_kernel_rows_are_counted_before_the_grid_is_built(call, nothing_built):
    # the d = 4 grid of order 80 has 1024000 points: its size is computed,
    # and 24 rows on it are refused before the grid or a node set exists
    ctx = DunklContext.create("zd2", 4, 0)
    with pytest.raises(ValueError, match="24 kernel rows on 1024000 sphere points "
                                         "are 24576000 values"):
        call(ctx, parse_function("exp"))


@pytest.mark.parametrize("g", ["exp", "poly 1,0,2,1"])
def test_funk_hecke_basis_blocks_match_one_block(g, monkeypatch):
    # a _ROW_BLOCK below the grid size takes one basis element per block
    ctx = DunklContext.create("zd2", 3, (1, 0, 2))
    fn = parse_function(g, ctx.lambda_kappa)
    opts = dict(orders=16, x_count=3, quad_order=12)
    whole = funk_hecke_table(ctx, fn, (2, 3), **opts)
    monkeypatch.setattr(fundamentality, "_ROW_BLOCK", 1)
    blocked = funk_hecke_table(ctx, fn, (2, 3), **opts)
    for a, b in zip(whole, blocked):
        assert a.basis_size == b.basis_size > 1
        assert set(a.residual_by_route) == set(b.residual_by_route)
        for route, value in a.residual_by_route.items():
            assert abs(value - b.residual_by_route[route]) <= 1e-15


@pytest.mark.parametrize("dim,kappa,g", [
    (3, 0, "poly 1,1,1,1,1"),
    (2, (1, 1), "poly 1,2,3"),           # translates go through intertwine
])
def test_funk_hecke_shared_powers_match_per_polynomial_evaluation(dim, kappa, g,
                                                                   monkeypatch):
    # one power table per chunk for all rows of an eval_rows call gives the
    # residuals of evaluating every polynomial alone, to the last bit
    ctx = DunklContext.create("zd2", dim, kappa)
    fn = parse_function(g, ctx.lambda_kappa)
    opts = dict(orders=24, x_count=6, quad_order=16)
    shared = funk_hecke_table(ctx, fn, range(4), **opts)
    monkeypatch.setattr(fundamentality, "eval_rows",
                        lambda polys, pts: np.stack([p.eval_many(pts) for p in polys]))
    alone = funk_hecke_table(ctx, fn, range(4), **opts)
    assert set(shared[0].residual_by_route) == {"quadrature", "translate"}
    assert [r.residual_by_route for r in shared] == [r.residual_by_route for r in alone]


@pytest.mark.parametrize("call,message", [
    # is_fundamental at n_max -3 was FUNDAMENTAL_UP_TO_N from an empty profile
    (lambda g: is_fundamental(CTX, g, n_max=-3),
     "degrees must be nonempty and >= 0, not []"),
    (lambda g: union_fundamental(CTX, [g, parse_function("cosh")], n_max=-1),
     "degrees must be nonempty and >= 0, not []"),
    (lambda g: is_fundamental(CTX, g, eps=-1e-12),
     "eps must be a finite number >= 0, not -1e-12"),
    (lambda g: union_fundamental(CTX, [g], eps=math.inf),
     "eps must be a finite number >= 0, not inf"),
    (lambda g: union_fundamental(CTX, []), "need at least one generator"),
], ids=["n_max-3", "union-n_max-1", "eps-neg", "union-eps-inf", "union-empty"])
def test_verdicts_refuse_missing_degrees_and_bad_eps(call, message):
    with pytest.raises(ValueError) as err:
        call(parse_function("exp"))
    assert str(err.value) == message


def test_funk_hecke_refuses_a_basis_too_large_before_building(nothing_built):
    with pytest.raises(ValueError, match="harmonic basis of degree 400 in d = 4 takes"):
        funk_hecke_table(DunklContext.create("zd2", 4, 0), parse_function("exp"),
                         (2, 400), orders=4)


@pytest.mark.parametrize("degrees,shown", [((), "[]"), ((2, -1), "[2, -1]")],
                         ids=["none", "negative"])
def test_funk_hecke_refuses_bad_degrees_before_building(degrees, shown, nothing_built):
    with pytest.raises(ValueError) as err:
        funk_hecke_table(CTX, parse_function("exp"), degrees)
    assert str(err.value) == f"degrees must be nonempty and >= 0, not {shown}"


def test_funk_hecke_degree_cap_counts_nonzero_coefficients():
    # the leading coefficients of this sum cancel: degree 69 on paper, 64 in
    # fact, which is the degree of its translate polynomials
    ones, tail = ",".join(["1"] * 70), ",".join(["0"] * 65 + ["-1"] * 5)
    fn = parse_function(f"sum 1*poly {ones} + 1*poly {tail}")
    assert fn.poly_degree == 69
    ctx = DunklContext.create("zd2", 2, (1, 1))
    assert translate_as_polynomial(ctx, fn, (0.6, 0.8)).degree() == 64
    (rep,) = funk_hecke_table(ctx, fn, (0,), orders=8, x_count=2, quad_order=8)
    assert set(rep.residual_by_route) == {"quadrature", "translate"}
    # no cap past that: a degree-65 g takes both routes too
    (rep,) = funk_hecke_table(ctx, parse_function("poly " + ",".join(["1"] * 66)), (0,),
                              orders=8, x_count=2, quad_order=8)
    assert set(rep.residual_by_route) == {"quadrature", "translate"}


def test_funk_hecke_csv():
    rep = funk_hecke_residual(CTX, parse_function("poly 0,1"), 1,
                              orders=40, x_count=3, quad_order=30)
    lines = rep.to_csv_text().splitlines()
    assert lines[0] == "n,route,residual"
    assert len(lines) == 1 + len(rep.residual_by_route)


# ---------------------------------------------------------------------------
# density demonstrations
# ---------------------------------------------------------------------------

def test_density_structural_zero_residual_is_one():
    # even g, odd target degree: the coefficient vanishes identically and no
    # span of translates can approximate the harmonic at all
    rep = density_demo(CTX, parse_function("cosh"), 1, [6, 10])
    assert rep.coefficient == 0.0
    assert list(rep.residuals) == [1.0, 1.0]


def test_density_residual_decreases():
    rep = density_demo(CTX, parse_function("exp"), 1, [6, 12, 24])
    assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]
    assert rep.residuals[2] < 0.05


def _cos3_residuals():
    # Z_2^2 at (2, 2), cos 3, m = 2: residuals near 1e-7, where the
    # difference 1 - 2 a.b + a.G.a kept about one digit
    ctx = DunklContext.create("zd2", 2, (2, 2))
    return density_demo(ctx, parse_function("cos 3", ctx.lambda_kappa), 2, (16, 64)).residuals


def test_density_residuals_are_grid_norms_of_the_residual_vector():
    # the grid norms || sqrt(w) Y - a R || of the residual vectors, as
    # measured apart from the library with the same coefficients a
    assert np.allclose(_cos3_residuals(), (4.275e-7, 1.069e-7), rtol=1e-3, atol=0)


def test_density_residuals_keep_their_digits_when_the_nodes_are_reordered(monkeypatch):
    # the same node set in reverse order sums G and K w Y in another order:
    # residuals taken from the residual vector move in their sixth digit at
    # most (the cancelling formula moved them by 2.9e-4)
    straight = _cos3_residuals()
    node_set = fundamentality.node_set
    monkeypatch.setattr(fundamentality, "node_set",
                        lambda *args, **kwargs: node_set(*args, **kwargs)[::-1].copy())
    assert np.allclose(_cos3_residuals(), straight, rtol=1e-5, atol=0)


def test_density_refuses_a_negative_grid_weight(monkeypatch):
    quad_points = SphereMeasure.quad_points

    def signed(self):
        pts, wts = quad_points(self)
        return pts, np.where(np.arange(len(wts)) == 3, -wts, wts)
    monkeypatch.setattr(SphereMeasure, "quad_points", signed)
    with pytest.raises(ValueError, match="negative weight"):
        density_demo(CTX, parse_function("exp"), 1, (6,), orders=8)


@pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
def test_density_refuses_a_bad_ridge_before_building(ridge, nothing_built):
    # ridge -1 reported a residual of 1.14, above the empty combination's 1
    with pytest.raises(ValueError) as err:
        density_demo(CTX, parse_function("exp"), 1, (6, 12), ridge=ridge)
    assert str(err.value) == f"ridge must be a finite number >= 0, not {ridge!r}"


@pytest.mark.parametrize("m", [1.5, 2.0, Fraction(3, 2)])
def test_density_refuses_a_non_integral_degree_before_the_grid(m, monkeypatch):
    def built(*args, **kwargs):
        raise RuntimeError("the sphere grid was built")
    monkeypatch.setattr(sphere, "_tensor_grid", built)
    g = parse_function("exp")
    with pytest.raises(RuntimeError):          # degree 1 gets as far as the grid
        density_demo(CTX, g, 1, [4])
    with pytest.raises(ValueError) as err:
        density_demo(CTX, g, m, [4])
    assert str(err.value) == f"degree must be an integer >= 0, not {m!r}"


def test_density_report_csv():
    rep = density_demo(CTX, parse_function("exp"), 2, [6, 12])
    lines = rep.to_csv_text().splitlines()
    assert lines[0] == "nodes,ridge,residual"
    assert len(lines) == 3
    doc = rep.to_json_dict()
    assert doc["kind"] == "density_demo"
    assert doc["node_counts"] == [6, 12]


# ---------------------------------------------------------------------------
# kernel symmetry and operator norms
# ---------------------------------------------------------------------------

def test_kernel_symmetry_near_zero():
    g = parse_function("exp")
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2 * 12, CTX.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    worst = 0.0
    for x, y in zip(z[0::2], z[1::2]):
        kxy = kernel_translate_batch(CTX, g, x, y[None, :])[0]
        kyx = kernel_translate_batch(CTX, g, y, x[None, :])[0]
        worst = max(worst, abs(float(kxy) - float(kyx)))
    assert worst <= 1e-11


def test_operator_norm_bounded_by_one():
    for name in ("exp", "poly 0,0,1"):
        rep = operator_norm_check(CTX, parse_function(name), p=2.0,
                                  x_count=20, seed=9)
        assert rep.max_ratio <= 1.0 + 1e-9


def test_operator_norm_equality_kappa_zero():
    ctx = DunklContext.create("zd2", 3, 0)
    rep = operator_norm_check(ctx, parse_function("exp"), p=2.0,
                              x_count=10, seed=1)
    assert abs(rep.max_ratio - 1.0) <= 1e-9


def test_operator_norm_blocks_centres_instead_of_refusing():
    # 132 centres on the 128000 points of Z_2^4 at order 40 are 16896000
    # kernel values, above MAX_GRID_POINTS; they are taken two rows at a time
    ctx = DunklContext.create("zd2", 4, 0)
    rep = operator_norm_check(ctx, parse_function("exp"), p=2.0, orders=40,
                              x_count=132, seed=1)
    assert len(rep.ratios) == 132
    assert max(abs(r - 1.0) for r in rep.ratios) <= 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_operator_norm_of_zero_g_is_zero(p):
    # K = 0 and ||g|| = 0: every ratio is 0, not 0 / 0 (pytest turns a
    # RuntimeWarning into an error)
    rep = operator_norm_check(CTX, parse_function("poly 0"), p=p, x_count=5)
    assert rep.segment_norm == 0.0
    assert rep.ratios == (0.0,) * 5 and rep.max_ratio == 0.0


def test_operator_norm_equality_positive_g_p1():
    rep = operator_norm_check(CTX, parse_function("exp"), p=1.0,
                              x_count=10, seed=2)
    assert abs(rep.max_ratio - 1.0) <= 1e-8


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------

_ENVELOPE = {"schema_version", "kind"}
_VERDICT_KEYS = {"verdict", "n_max", "p", "lambda", "eps", "zero_witnesses",
                 "indeterminate_degrees"}


def test_report_schema_keys_and_csv_headers():
    # every report kind's exact JSON keys and CSV header: a serializer that
    # drops or renames a field fails here
    fh = funk_hecke_table(CTX, parse_function("poly 0,1"), (0, 1),
                          orders=24, x_count=3, quad_order=16)
    fund = is_fundamental(CTX, parse_function("exp"), n_max=3)
    reports = {
        "coefficient_profile": (
            fund.profile,
            {"g", "lambda", "epsilon", "norm_g1", "rule_size", "precision",
             "entries"},
            "n,re,im,error_bound,flag"),
        "fundamentality": (fund, _VERDICT_KEYS | {"profile"},
                           "n,re,im,error_bound,flag"),
        "union_fundamentality": (
            union_fundamental(CTX, [parse_function("cosh"),
                                    parse_function("sinh")], n_max=3),
            _VERDICT_KEYS | {"aggregate_abs", "aggregate_error", "members"},
            "n,aggregate_abs,aggregate_error,flag"),
        "funk_hecke": (
            fh[0],
            {"n", "lambda", "coefficient", "coefficient_error", "residual",
             "residual_by_route", "x_count", "basis_size"},
            "n,route,residual"),
        "funk_hecke_table": (
            FunkHeckeTable(1e-6, max(r.residual for r in fh), fh),
            {"threshold", "max_residual", "rows"},
            "n,residual"),
        "density_demo": (
            density_demo(CTX, parse_function("exp"), 1, [4], orders=24,
                         kernel_order=16),
            {"m_degree", "lambda", "coefficient", "node_counts", "residuals",
             "ridges", "scheme"},
            "nodes,ridge,residual"),
        "operator_norm": (
            operator_norm_check(CTX, parse_function("exp"), x_count=3,
                                orders=24, kernel_order=16),
            {"p", "max_ratio", "ratios", "segment_norm"},
            None),
    }
    for kind, (rep, keys, header) in reports.items():
        doc = rep.to_json_dict()
        assert doc["kind"] == kind and doc["schema_version"] == "2"
        assert set(doc) == _ENVELOPE | keys, kind
        json.dumps(doc, allow_nan=False)
        if header is None:
            with pytest.raises(AttributeError):
                rep.to_csv_text()
        else:
            assert rep.to_csv_text().splitlines()[0] == header, kind
    entries = reports["coefficient_profile"][0].to_json_dict()["entries"]
    assert set(entries[0]) == {"n", "re", "im", "error_bound", "flag",
                               "structural"}
    row = reports["funk_hecke"][0].to_json_dict()
    assert set(row["coefficient"]) == {"re", "im"}
    assert list(row["residual_by_route"]) == ["quadrature", "translate"]
    table = reports["funk_hecke_table"][0].to_json_dict()
    assert table["rows"] == [r.to_json_dict() for r in fh]
    union = reports["union_fundamentality"][0].to_json_dict()
    assert [m["kind"] for m in union["members"]] == ["fundamentality"] * 2
