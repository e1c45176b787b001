"""dunklsphere benchmark: one workload (or all) for a fixed time, with checks.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each

Closed loop, one client: each pass is a fresh child process (child.py) that
pays the cold import and cold caches once, as a CLI or notebook user does,
and runs the workload's ops one after another.  Passes repeat until the next
one would overrun ``--seconds`` (checking time excluded); end-to-end
metrics are medians over passes, and ``setup_s`` is the median over
SETUP_STARTS extra cold starts plus every untraced pass.  Times are in
reference seconds, scaled by the machine-speed calibration of calibrate.py;
the table also prints the raw set-up and wall times.  The first pass is
checked against closed-form truth (outside its timed region); later passes
must reproduce its outputs byte for byte.

With ``--trace 1`` passes alternate untraced and traced; the per-layer
metrics come from a traced pass, spans go to perfbench/out/, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts ops whose result neither matches the truth nor
shows a seed defect recorded in known_defects.json; recorded defects count
against ``ok_frac`` instead, so that fixing one shows as a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 2
RUN_LIMIT_S = 170.0          # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
    ("peak_rss_mb", "MiB"), ("ok_frac", "ratio"),
)
# printed with the end-to-end table; they may be 0, so BENCHMARK.json keeps
# them among the per-layer metrics of the traced run
CORRECTNESS = (("fail_frac", "ratio"), ("indeterminate_frac", "ratio"),
               ("bound_miss_frac", "ratio"))
# printed for reference: the same times before calibration
RAW_TIMES = (("setup_raw_s", "s"), ("wall_raw_s", "s"))


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    # One BLAS thread: with two, each BLAS call also waits for the second
    # CPU, whose share of a shared host varies from second to second, and
    # the calibration (single-threaded) cannot follow that.
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: list, started: float) -> dict:
    """Run child.py with args; return its JSON line."""
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    if budget < 5:
        raise BenchError("out of time before the next child")
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget,
                              env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded {budget:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    base = ["--workload", name, "--seed", str(seed)]
    setups = [_spawn(base + ["--setup-only"], started) for _ in range(SETUP_STARTS)]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.json"

    passes, measured = [], 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        extra = ["--check"] if not passes else []
        if traced:
            extra += ["--trace", "--spans", str(spans_path)]
        t = time.monotonic()
        payload = _spawn(base + extra, started)
        wall = time.monotonic() - t - payload.get("check_s", 0.0)
        measured += wall
        payload["traced"] = traced
        passes.append(payload)
        need_traced = trace and not any(p["traced"] for p in passes)
        if not need_traced and measured + wall > seconds:
            break
    return summarize(passes, setups, trace)


def _outcomes(passes: list) -> list:
    """Outcome of every (pass, op); later passes inherit the checked pass's
    outcome when their output digest matches it, and fail otherwise."""
    first = passes[0]["ops"]
    out = []
    for p in passes:
        for ref, rec in zip(first, p["ops"]):
            if rec["digest"] != ref["digest"]:
                out.append(("fail", rec["id"], ["output differs from the first pass"]))
            else:
                out.append((ref["outcome"], rec["id"], ref["reasons"]))
    return out


def _op_medians(passes: list, key: str = "dt") -> list:
    """Each op's median time over passes, so that one disturbed op in one
    pass does not move the result."""
    return [statistics.median(p["ops"][k][key] for p in passes)
            for k in range(len(passes[0]["ops"]))]


def summarize(passes: list, setups: list, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    op_times = _op_medians(plain)
    core = [t for t, op in zip(op_times, plain[0]["ops"]) if not op["id"].startswith("seed")]
    outcomes = _outcomes(passes)
    attempted = len(outcomes)
    failed = sum(o == "fail" for o, _, _ in outcomes)
    ok = sum(o == "ok" for o, _, _ in outcomes)
    checked = passes[0]["ops"]
    entries = sum(r["entries"] for r in checked)
    bound_checked = sum(r["bound_checked"] for r in checked)
    metrics = {
        "setup_s": statistics.median([s["setup_s"] for s in setups + plain]),
        "wall_s": sum(op_times),
        "setup_raw_s": statistics.median([s["setup_raw_s"] for s in setups + plain]),
        "wall_raw_s": sum(_op_medians(plain, "raw")),
        "op_p50_s": statistics.median(core),
        "peak_rss_mb": statistics.median(p["rss_mib"] for p in plain),
        "ok_frac": ok / attempted,
        "fail_frac": (attempted - ok) / attempted,
        "indeterminate_frac": (sum(r["indeterminate"] for r in checked) / entries
                               if entries else 0.0),
        "bound_miss_frac": (sum(r["bound_miss"] for r in checked) / bound_checked
                            if bound_checked else 0.0),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        traced_walls = [sum(op["dt"] for op in p["ops"]) for p in traced]
        layers = traced[traced_walls.index(statistics.median_low(traced_walls))]["layers"]
        layers["trace.overhead_s"] = sum(_op_medians(traced)) - metrics["wall_s"]
        for key, _ in CORRECTNESS:
            layers[key] = metrics[key]
        metrics = layers
    problems = sorted({(o, op, "; ".join(r)) for o, op, r in outcomes if o != "ok"})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems,
            "ops_per_pass": len(checked),
            "pass_walls": [sum(op["raw"] for op in p["ops"]) for p in plain]}


def _report(name: str, res: dict, trace: bool) -> dict:
    """Print the human table; return the metrics in the JSON shape."""
    units = ({m: u for m, u, _ in LAYER_METRICS} if trace
             else dict(END_TO_END + RAW_TIMES + CORRECTNESS))
    walls = ", ".join(f"{w:.2f}" for w in res["pass_walls"])
    print(f"== {name}: {res['ops_per_pass']} ops per pass, raw op time per untraced "
          f"pass [{walls}] s, attempted {res['attempted']}, failed {res['failed']}")
    for metric, unit in units.items():
        print(f"  {metric:42s} {res['metrics'][metric]:>16.6g} {unit}")
    for outcome, op, why in res["problems"]:
        print(f"  {outcome:6s} {op}: {why}", file=sys.stderr)
    keep = [m for m, _, _ in LAYER_METRICS] if trace else [m for m, _ in END_TO_END]
    return {m: {"value": res["metrics"][m], "unit": units[m]} for m in keep}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dunklsphere" / "__init__.py").is_file():
        print(f"error: no dunklsphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, res in results.items():
        shown = _report(name, res, bool(args.trace))
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{m}": v for m, v in shown.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
