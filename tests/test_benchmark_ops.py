"""The benchmark compares each pass's report bytes with the first pass's, in
one process per pass.  Here every ``verdicts`` op runs twice in one process,
with gegenbauer's caches cleared between the runs, and must print the same
bytes and exit with the same code both times.  perfbench/workloads.py is
loaded by path; nothing under perfbench/ is imported as a package."""

import importlib.util
from pathlib import Path

import pytest

from dunklsphere import cli, gegenbauer

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_gegenbauer_caches():
    for value in vars(gegenbauer).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.mark.parametrize("seed", [1, 41])
def test_verdicts_reports_repeat_in_one_process(capsys, seed):
    ops = [op for op in _workloads().build("verdicts", seed) if op["kind"] == "cli"]
    assert ops
    runs = []
    for _ in range(2):
        _clear_gegenbauer_caches()
        run = []
        for op in ops:
            code = cli.main(op["argv"])
            run.append((op["id"], code, capsys.readouterr().out))
        runs.append(run)
    assert all(out for _, _, out in runs[0])
    assert runs[0] == runs[1]
