import json
import math

import numpy as np
import pytest

from dunklsphere import (
    FUNDAMENTAL,
    INDETERMINATE_VERDICT,
    NOT_FUNDAMENTAL,
    DunklContext,
    Function1D,
    density_demo,
    funk_hecke_residual,
    funk_hecke_table,
    is_fundamental,
    kernel_symmetry_check,
    operator_norm_check,
    parse_function,
    union_fundamental,
)

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
    val = kernel_symmetry_check(CTX, parse_function("exp"), pairs=12, seed=5)
    assert val <= 1e-11


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


def test_operator_norm_equality_positive_g_p1():
    rep = operator_norm_check(CTX, parse_function("exp"), p=1.0,
                              x_count=10, seed=2)
    assert abs(rep.max_ratio - 1.0) <= 1e-8
