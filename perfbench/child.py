"""One cold pass of a workload, in a fresh process started by run.py.

Set-up is timed from the parent's spawn time (``--t0``, a CLOCK_MONOTONIC
reading, which is shared by all processes) to the moment the package is
imported and the workload's DunklContexts are built.  Then every op runs
once, in order, with the package's stdout and stderr captured; only the op
calls are timed.  Checks, digests and span output come after the timed
region.  Every time is reported twice: raw, and in reference seconds against
the calibration (calibrate.py) measured right after set-up and after each
op.  One JSON line on the real stdout carries the results.

The address space is capped first, so an unguarded allocation fails as a
MemoryError inside this process instead of exhausting the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ADDRESS_SPACE_MIB = 3000
ROOT = Path(__file__).resolve().parent.parent


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_MIB * 2 ** 20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import dunklsphere
    where = Path(dunklsphere.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"dunklsphere imported from {where}, not from {ROOT / 'src'}")
    return dunklsphere


def _context_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _build_context(pkg, spec: dict):
    kappa = [Fraction(k) for k in spec["kappa"]]
    return pkg.DunklContext.create(spec["family"], spec["dimension"],
                                   kappa[0] if len(kappa) == 1 else kappa,
                                   order=spec["order"])


def _run_cli(pkg, tracer, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = pkg.cli.main(argv)
            else:
                code = tracer.call("cli.main", pkg.cli.main, argv)
    except Exception as exc:            # a raising op is a result to classify
        return {"raised": f"{type(exc).__name__}: {exc}", "stderr": err.getvalue()}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_harmonic(pkg, ctx, n) -> dict:
    try:
        # looked up on the module at call time, so a traced run sees the wrapper
        basis = pkg.operators.harmonic_basis(ctx, n)
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {"elements": [dict(p.terms) for p in basis.elements],
            "exact": ctx.exact,
            "roots": [(v, ctx.kappa.value(v)) for v in ctx.root_system.positive]}


def _digest(result: dict) -> str:
    if "elements" in result:
        body = [sorted((e, repr(c)) for e, c in p.items()) for p in result["elements"]]
    else:
        body = [result.get("raised"), result.get("exit"), result.get("stdout")]
    return hashlib.sha256(repr(body).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write spans here (traced pass)")
    args = ap.parse_args(argv)

    _cap_address_space()
    pkg = _import_package()
    import dunklsphere.cli  # noqa: F401  (binds pkg.cli)
    import calibrate
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    ctxs = {_context_key(s): _build_context(pkg, s) for s in workloads.contexts(ops)}
    setup_s = time.monotonic() - args.t0
    calibrate.reference_work()              # first-call costs are not machine speed
    speed = [calibrate.measure()]
    setup = {"setup_s": setup_s * calibrate.REF_S / speed[0], "setup_raw_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup), file=sys.__stdout__)
        return 0

    results, times = [], []
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
        start = time.perf_counter()
        if op["kind"] == "cli":
            res = _run_cli(pkg, tracer, op["argv"])
        else:
            res = _run_harmonic(pkg, ctxs[_context_key(op["ctx"])], op["n"])
        times.append(time.perf_counter() - start)
        results.append(res)
        speed.append(calibrate.measure())
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # each op in reference seconds, against the calibrations around it
    ref = [dt * 2 * calibrate.REF_S / (speed[k] + speed[k + 1]) for k, dt in enumerate(times)]
    payload = dict(setup, rss_mib=rss_mib, ops=[
        {"id": op["id"], "dt": dt_ref, "raw": dt, "digest": _digest(res)}
        for op, dt_ref, dt, res in zip(ops, ref, times, results)])
    if args.check:
        import checks
        check_start = time.perf_counter()
        rng = random.Random(f"check:{args.workload}:{args.seed}")
        for rec, op, res in zip(payload["ops"], ops, results):
            rec.update(vars(checks.check(args.workload, op, res, rng)))
        payload["check_s"] = time.perf_counter() - check_start
    if tracer is not None:
        payload["layers"] = tracer.layer_metrics()
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.span_records()))
    print(json.dumps(payload), file=sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
