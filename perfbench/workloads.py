"""The four workloads: a fixed core of ops plus a few drawn from the seed.

An op is either one ``dunklsphere.cli.main(argv)`` call (kind "cli") or one
``harmonic_basis(ctx, n)`` call (kind "harmonic").  Every op carries what its
checks need: the lambda of its context (derived here by hand, from
gamma = sum of kappa over positive roots, so the oracle never asks the
package) and the generator text the CLI receives.  The seeded draws only vary
inputs whose cost does not depend on the draw much, so that runs with
different seeds stay comparable: a step threshold at N = 4 (at larger N the
mpmath escalation of a step profile costs 0 to 1.9 s depending on the
threshold), cos frequencies below the first Bessel zero, and the x points
and nodes that ``--seed`` fixes inside the package.  Ops drawn from the seed have ids
starting with "seed-"; ``op_p50_s`` leaves them out.

Sizes are cut down from the configurations they follow so that a run holds
several passes; the cuts are listed in perfbench/README.md.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

WORKLOADS = ("verdicts", "harmonics", "funk-hecke", "density")

STEP_POOL = ("-4/5", "-3/4", "-2/3", "-3/5", "-2/5", "-1/4", "-1/5", "-1/6",
             "1/6", "1/5", "1/4", "2/5", "3/5", "2/3", "3/4", "4/5")
COS_POOL = ("1/2", "2/3", "3/4", "1", "5/4", "4/3", "3/2", "5/3", "7/4", "2",
            "9/4", "5/2", "8/3", "11/4", "3")
KAPPA_POOL = ("1/3", "1/2", "2/3", "1", "3/2", "2")

# (CLI context flags, lambda of that context)
LAM2 = (["-d", "2", "--kappa", "1,1"], Q(2))                  # zd2, kappa 1,1
LAM_HALF = (["-d", "3", "--kappa", "0"], Q(1, 2))             # d = 3, kappa 0
B3 = (["--family", "b", "-d", "3", "--kappa", "1/2,1/2"], Q(5))


def _cli(op_id, command, g, ctx, *extra, expect_exit=None):
    flags, lam = ctx
    g_args = []
    for text in ([g] if isinstance(g, str) else g):
        g_args += ["--g", text]
    return {"id": op_id, "kind": "cli", "command": command,
            "argv": [command, *g_args, *flags, *extra],
            "g": [g] if isinstance(g, str) else list(g), "lam": str(lam),
            "expect_exit": expect_exit}


def _harmonic(op_id, family, dim, kappa, n, order=None):
    return {"id": op_id, "kind": "harmonic", "ctx": _ctx_spec(family, dim, kappa, order),
            "n": n}


def _ctx_spec(family, dim, kappa, order=None):
    return {"family": family, "dimension": dim, "order": order,
            "kappa": [str(k) for k in kappa]}


def _verdicts(rng):
    step, cos = rng.choice(STEP_POOL), rng.choice(COS_POOL)
    return [
        _cli("exp", "fundamental", "exp", LAM2, "-N", "12"),
        _cli("cosh-sinh", "fundamental", ["cosh", "sinh"], LAM2, "-N", "12"),
        _cli("cos-3", "fundamental", "cos 3", LAM2, "-N", "12"),
        _cli("step-1_5", "fundamental", "step 1/5", LAM2, "-N", "12"),
        _cli("step-0", "fundamental", "step 0", LAM_HALF, "-N", "8"),
        _cli("step-neg1_2", "fundamental", "step -1/2", LAM_HALF, "-N", "10"),
        _cli("poly-101", "fundamental", "poly 1,0,1", LAM2, "-N", "12"),
        _cli("gegen-5", "fundamental", "gegen 5", LAM2, "-N", "12"),
        _cli("sum-exp-step", "fundamental", "sum 1*exp + 1/2*step 1/2", LAM_HALF,
             "-N", "8"),
        _cli("b3-exp", "fundamental", "exp", B3, "-N", "12"),
        _cli("exp-N20", "coeffs", "exp", LAM2, "-N", "20"),
        _cli("poly-11-N200", "coeffs", "poly 1,1", LAM_HALF, "-N", "200"),
        _cli("seed-cos", "fundamental", f"cos {cos}", LAM_HALF, "-N", "12"),
        _cli("seed-step", "coeffs", f"step {step}", LAM2, "-N", "4"),
    ]


def _harmonics(rng):
    kappa = rng.choice(KAPPA_POOL)
    ops = [_harmonic("a3-n6", "a", 4, ["1"], 6),
           _harmonic("d4-n5", "d", 4, ["1"], 5)]
    ops += [_harmonic(f"b3-n{n}", "b", 3, ["1", "2"], n) for n in range(2, 7)]
    ops += [_harmonic(f"zd2d4-n{n}", "zd2", 4, ["1/2"], n) for n in range(2, 5)]
    ops += [_harmonic(f"i2m5-n{n}", "i2", 2, ["1"], n, order=5) for n in range(2, 7)]
    ops += [_harmonic(f"i2m4-n{n}", "i2", 2, ["1", "1"], n, order=4) for n in (2, 3)]
    ops.append(_harmonic("seed-zd2d3-n4", "zd2", 3, ["1/2", kappa, "1"], 4))
    return ops


def _funk_hecke(rng, seed):
    cos = rng.choice(COS_POOL)
    mixed = (["-d", "3", "--kappa", "1/2,0,2"], Q(3))
    ones3 = (["-d", "3", "--kappa", "1,1,1"], Q(7, 2))
    ones4 = (["-d", "4", "--kappa", "1,1,1,1"], Q(5))
    b3 = (["--family", "b", "-d", "3", "--kappa", "0"], Q(1, 2))
    d5 = (["-d", "5", "--kappa", "0"], Q(3, 2))
    return [
        _cli("d2-exp", "funk-hecke", "exp", LAM2, "--degrees", "0,1,2,3,4,5,6"),
        _cli("d3-mixed", "funk-hecke", "exp", mixed, "--orders", "40",
             "--kernel-order", "24", "--degrees", "0,1,2,3,4"),
        _cli("d3-poly9", "funk-hecke", "poly 1,1,1,1,1,1,1,1,1", LAM_HALF,
             "--orders", "40", "--degrees", "0,1,2"),
        _cli("d3-ones", "funk-hecke", "exp", ones3, "--orders", "24",
             "--kernel-order", "16", "--degrees", "0,1"),
        _cli("d4-ones", "funk-hecke", "exp", ones4, "--orders", "10",
             "--kernel-order", "8", "--degrees", "0,1", "--seed", str(seed)),
        _cli("b3-k0", "funk-hecke", "exp", b3, "--degrees", "0,1,2,3"),
        _cli("d5-o80", "funk-hecke", "exp", d5, "--orders", "80", "--degrees", "0",
             expect_exit=2),
        _cli("seed-cos", "funk-hecke", f"cos {cos}", LAM2, "--degrees", "0,1,2,3,4"),
    ]


def _density(rng, seed):
    cos = rng.choice(COS_POOL)
    mixed = (["-d", "3", "--kappa", "1,0,1"], Q(5, 2))
    d4 = (["-d", "4", "--kappa", "0"], Q(1))
    rand = ["--scheme", "uniform_random", "--seed", str(seed)]
    return [
        _cli("d2-m1", "density", "exp", LAM2, "-m", "1", "--nodes", "16,64,128"),
        _cli("d2-m3", "density", "exp", LAM2, "-m", "3", "--nodes", "16,64,128"),
        _cli("d3-mixed", "density", "exp", mixed, "--nodes", "16,32,64",
             "--orders", "40", "--kernel-order", "24"),
        _cli("d3-random", "density", "exp", LAM_HALF, "--nodes", "16,64", *rand),
        _cli("d4-random", "density", "exp", d4, "--nodes", "16,64", "--orders", "24",
             *rand),
        _cli("cosh-m1", "density", "cosh", LAM2, "-m", "1", "--nodes", "8,16"),
        _cli("seed-cos", "density", f"cos {cos}", LAM2, "-m", "2", "--nodes", "16,64"),
    ]


def build(workload: str, seed: int) -> list:
    """The op list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verdicts":
        return _verdicts(rng)
    if workload == "harmonics":
        return _harmonics(rng)
    if workload == "funk-hecke":
        return _funk_hecke(rng, seed)
    if workload == "density":
        return _density(rng, seed)
    raise ValueError(f"unknown workload {workload!r}")


def contexts(ops: list) -> list:
    """Distinct context specs of a workload, built during set-up."""
    specs = []
    for op in ops:
        spec = op["ctx"] if op["kind"] == "harmonic" else _cli_ctx_spec(op["argv"])
        if spec not in specs:
            specs.append(spec)
    return specs


def _cli_ctx_spec(argv):
    def flag(name, default):
        return argv[argv.index(name) + 1] if name in argv else default
    return _ctx_spec(flag("--family", "zd2"), int(flag("-d", "2")),
                     flag("--kappa", "0").split(","))
