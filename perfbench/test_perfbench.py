"""The benchmark's own tests:  python3 -m pytest perfbench

They pin the closed forms, show that the checks reject planted wrong
results, and hold BENCHMARK.json to the names the harness prints.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

import dunklsphere  # noqa: E402
from dunklsphere import DunklContext, MultiPoly, dunkl_laplacian, harmonic_basis  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _direct(text: str, lam: Fraction, n: int):
    """Lambda_n by adaptive mpmath quadrature of the defining integral."""
    parts = oracle.parse(text)
    lm = mp.mpf(lam.numerator) / lam.denominator
    cuts = [mp.mpf(p.numerator) / p.denominator for _, k, p in parts if k == "step"]

    def g(t):
        out = 0
        for w, kind, p in parts:
            w = mp.mpf(w.numerator) / w.denominator
            if kind == "exp":
                out += w * mp.exp(t)
            elif kind == "cos":
                out += w * mp.cos(mp.mpf(p.numerator) / p.denominator * t)
            elif kind == "step":
                out += w * (1 if t >= mp.mpf(p.numerator) / p.denominator else 0)
        return out

    def cn(t):
        prev, cur = mp.mpf(1), 2 * lm * t
        for k in range(2, n + 1):
            prev, cur = cur, (2 * (k + lm - 1) * t * cur - (k + 2 * lm - 2) * prev) / k
        return prev if n == 0 else cur

    c = mp.gamma(lm + 1) / (mp.sqrt(mp.pi) * mp.gamma(lm + mp.mpf(1) / 2))
    raw = mp.quad(lambda t: g(t) * cn(t) * (1 - t * t) ** (lm - mp.mpf(1) / 2),
                  [-1, *cuts, 1])
    return c * raw / cn(mp.mpf(1))


@pytest.mark.parametrize("text", ["exp", "cos 5/2", "step 1/5", "step -1/2",
                                  "sum 1*exp + 1/2*step 1/2"])
@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(5)])
def test_closed_forms_match_direct_quadrature(text, lam):
    with mp.workdps(40):
        for n in range(7):
            truth, direct = oracle.value(text, lam, n), _direct(text, lam, n)
            assert abs(truth - direct) <= mp.mpf(10) ** -30 * max(1, abs(direct))


def test_linear_coefficient_at_half():
    assert oracle._poly_exact((0, 1), Fraction(1, 2), 1) == Fraction(1, 3)
    with mp.workdps(oracle.DPS):
        assert abs(oracle.value("poly 0,1", Fraction(1, 2), 1) - mp.mpf(1) / 3) < 1e-45


def test_gegen_profile_is_a_scaled_delta():
    lam = Fraction(2)
    for n in range(8):
        want = lam / (5 + lam) if n == 5 else 0
        assert oracle._poly_exact(oracle.gegenbauer_monomials(5, lam), lam, n) == want
        assert oracle.is_zero("gegen 5", lam, n) == (n != 5)


@pytest.mark.parametrize("n,ratio", [(1, Fraction(4, 5)), (7, Fraction(4, 77)),
                                     (14, Fraction(1, 63))])
@pytest.mark.parametrize("a", [Fraction(1, 5), Fraction(-1, 3)])
def test_step_ratios_at_lambda_two(n, ratio, a):
    lam = Fraction(2)
    assert oracle.step_factor(lam, n) == ratio
    with mp.workdps(40):
        am = mp.mpf(a.numerator) / a.denominator
        integral = mp.quad(lambda t: mp.gegenbauer(n, 2, t) * (1 - t * t) ** 1.5, [am, 1])
        rest = (1 - am * am) ** 2.5 * mp.gegenbauer(n - 1, 3, am)
        assert abs(integral / rest - mp.mpf(ratio.numerator) / ratio.denominator) < 1e-30


def test_step_zero_vanishes_at_every_even_degree():
    for lam in (Fraction(1, 2), Fraction(2), Fraction(5)):
        assert [oracle.is_zero("step 0", lam, n) for n in range(1, 21)] == \
            [n % 2 == 0 for n in range(1, 21)]
        with mp.workdps(oracle.DPS):
            assert abs(oracle.value("step 0", lam, 0) - mp.mpf(1) / 2) < 1e-40


def test_harmonic_dimension():
    assert [oracle.harmonic_dimension(3, n) for n in range(5)] == [1, 3, 5, 7, 9]
    assert oracle.harmonic_dimension(4, 6) == 49


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def test_workloads_are_seeded_and_named():
    for w in workloads.WORKLOADS:
        assert NAME.fullmatch(w)
        ops = workloads.build(w, 5)
        assert ops == workloads.build(w, 5)
        ids = [op["id"] for op in ops]
        assert len(set(ids)) == len(ids) and all(NAME.fullmatch(i) for i in ids)
    assert any(workloads.build("verdicts", s) != workloads.build("verdicts", 5)
               for s in range(6, 10))


def test_hand_derived_lambda_matches_the_package():
    for w in workloads.WORKLOADS:
        for op in workloads.build(w, 1):
            if op["kind"] != "cli":
                continue
            spec = workloads._cli_ctx_spec(op["argv"])
            kappa = [Fraction(k) for k in spec["kappa"]]
            ctx = DunklContext.create(spec["family"], spec["dimension"],
                                      kappa[0] if len(kappa) == 1 else kappa)
            assert ctx.lambda_kappa == Fraction(op["lam"]), op["id"]


def test_known_defects_name_existing_ops():
    ids = {f"{w}/{op['id']}" for w in workloads.WORKLOADS for op in workloads.build(w, 1)}
    assert set(checks.KNOWN_DEFECTS) <= ids


# ---------------------------------------------------------------------------
# Checks reject planted wrong results
# ---------------------------------------------------------------------------

def _op(workload, op_id):
    return next(op for op in workloads.build(workload, 1) if op["id"] == op_id)


def _cli_result(op):
    import contextlib
    import io
    from dunklsphere import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op["argv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_planted_wrong_verdict_fails():
    op = _op("verdicts", "poly-101")
    res = _cli_result(op)
    assert checks.check("verdicts", op, res, random.Random(0)).outcome == "ok"
    doc = json.loads(res["stdout"])
    doc["verdict"] = "FUNDAMENTAL_UP_TO_N"
    planted = dict(res, stdout=json.dumps(doc), exit=0)
    v = checks.check("verdicts", op, planted, random.Random(0))
    assert v.outcome == "fail" and "verdict FUNDAMENTAL" in " ".join(v.reasons)


def test_planted_wrong_flag_fails_and_indeterminate_does_not():
    op = _op("verdicts", "cosh-sinh")
    doc = json.loads(_cli_result(op)["stdout"])
    entry = doc["members"][0]["profile"]["entries"][2]
    entry["flag"] = "indeterminate"
    res = {"exit": 0, "stdout": json.dumps(doc), "stderr": ""}
    v = checks.check("verdicts", op, res, random.Random(0))
    assert v.outcome == "ok" and v.indeterminate == 1
    entry["flag"] = "zero"
    v = checks.check("verdicts", op, dict(res, stdout=json.dumps(doc)), random.Random(0))
    assert v.outcome == "fail"


def test_bound_miss_counts_beyond_half_an_ulp():
    v = checks.CheckResult()
    truth = mp.mpf(1) / 3
    checks._check_value(v, "x", float(truth), 0.0, 0.0, truth, strict=False)
    assert (v.bound_checked, v.bound_miss) == (1, 0)
    checks._check_value(v, "x", float(truth) + 2 ** -50, 0.0, 0.0, truth, strict=False)
    assert (v.bound_checked, v.bound_miss) == (2, 1) and v.outcome == "ok"


def _basis_result(ctx, n):
    basis = harmonic_basis(ctx, n)
    return {"elements": [dict(p.terms) for p in basis.elements], "exact": ctx.exact,
            "roots": [(v, ctx.kappa.value(v)) for v in ctx.root_system.positive]}


def test_wrong_basis_dimension_fails():
    op = _op("harmonics", "b3-n3")
    ctx = DunklContext.create("b", 3, [1, 2])
    res = _basis_result(ctx, 3)
    assert checks.check("harmonics", op, res, random.Random(0)).outcome == "ok"
    short = dict(res, elements=res["elements"][:-1])
    v = checks.check("harmonics", op, short, random.Random(0))
    assert v.outcome == "fail" and "dimension" in v.reasons[0]


def test_exact_basis_needs_an_exactly_zero_laplacian():
    op = _op("harmonics", "b3-n3")
    res = _basis_result(DunklContext.create("b", 3, [1, 2]), 3)
    elems = [dict(p) for p in res["elements"]]
    key = next(iter(elems[0]))
    elems[0][key] += Fraction(1, 10 ** 30)
    v = checks.check("harmonics", op, dict(res, elements=elems), random.Random(0))
    assert v.outcome == "fail" and "Laplacian" in v.reasons[0]


def test_float_basis_laplacian_tolerance():
    op = _op("harmonics", "i2m5-n4")
    res = _basis_result(DunklContext.create("i2", 2, 1, order=5), 4)
    assert not res["exact"]
    assert checks.check("harmonics", op, res, random.Random(0)).outcome == "ok"
    elems = [dict(p) for p in res["elements"]]
    key = next(iter(elems[0]))
    elems[0][key] += 1e-6
    v = checks.check("harmonics", op, dict(res, elements=elems), random.Random(0))
    assert v.outcome == "fail" and "Laplacian" in v.reasons[0]


def test_laplacian_evaluator_agrees_with_the_package():
    ctx = DunklContext.create("a", 4, 1)
    rng = random.Random(3)
    terms = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for e in dunklsphere.monomials_of_degree(4, 4)}
    p = MultiPoly(4, terms)
    roots = [(v, ctx.kappa.value(v)) for v in ctx.root_system.positive]
    x = [Fraction(3), Fraction(-1, 2), Fraction(5, 7), Fraction(2)]
    assert checks.dunkl_laplacian_at(p.terms, x, roots) == dunkl_laplacian(ctx, p).eval(x)


def test_recorded_defect_is_not_an_unexpected_failure():
    op = _op("harmonics", "i2m4-n2")
    res = {"raised": "NonDivisibleError: remainder 4.000e+00 exceeds tolerance"}
    assert checks.check("harmonics", op, res, random.Random(0)).outcome == "defect"
    other = {"raised": "ValueError: something else"}
    assert checks.check("harmonics", op, other, random.Random(0)).outcome == "fail"


# ---------------------------------------------------------------------------
# Tracing and the reported metric set
# ---------------------------------------------------------------------------

def test_tracer_restores_every_binding():
    from dunklsphere import fundamentality, gegenbauer, operators, sphere
    before = (operators.jacobi_rule, gegenbauer.jacobi_rule, MultiPoly.eval_many,
              sphere.SphereMeasure.quad_points, fundamentality.kernel_translate_batch,
              dunklsphere.generate_group, mp.quad)
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.jacobi_rule is gegenbauer.jacobi_rule is not before[0]
        assert fundamentality.kernel_translate_batch is operators.kernel_translate_batch
        # looked up at call time, as the benchmark's child does
        dunklsphere.DunklContext.create("b", 3, 1)
        dunklsphere.operators.harmonic_basis(dunklsphere.DunklContext.create("zd2", 2, 1), 3)
    finally:
        tracer.uninstall()
    after = (operators.jacobi_rule, gegenbauer.jacobi_rule, MultiPoly.eval_many,
             sphere.SphereMeasure.quad_points, fundamentality.kernel_translate_batch,
             dunklsphere.generate_group, mp.quad)
    assert after == before
    layers = tracer.layer_metrics()
    assert layers["reflection.generate_group.calls"] == 2
    assert layers["operators.harmonic_basis.elements"] == 2
    assert layers["operators.dunkl_apply.calls"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, -1, "a"],
                    ["fundamentality.density_demo", 1.0, 9.0, 0, "a"],
                    ["operators.kernel_translate_batch", 2.0, 5.0, 1, "a"],
                    ["operators.translate_as_polynomial", 5.0, 8.0, 1, "a"],
                    ["operators.translate_as_polynomial", 6.0, 7.0, 3, "a"]]
    m = tracer.layer_metrics()
    assert m["cli.self_s"] == 2.0
    assert m["fundamentality.self_s"] == 2.0
    assert m["operators.translate_as_polynomial.s"] == 3.0
    assert m["operators.translate_as_polynomial.calls"] == 2


def test_calibration_ignores_the_package_precision():
    import calibrate
    saved = mp.dps
    try:
        mp.dps = 300
        calibrate.reference_work()
        assert calibrate._MP.dps == 50
    finally:
        mp.dps = saved
    assert "dunklsphere" not in calibrate.__dict__
    assert 0 < calibrate.measure() < 10


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        list(LAYER_METRICS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert max(BENCH["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_every_workload_reports_every_metric(capsys):
    """One short real run per workload: every end-to-end metric, no failures."""
    for w in workloads.WORKLOADS:
        assert run.main(["--workload", w, "--seconds", "0", "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(out["metrics"]) == {m for m, _ in run.END_TO_END}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert all(v["value"] > 0 for v in out["metrics"].values())
