"""The benchmark compares each pass's report bytes with the first pass's, in
one process per pass.  Here every ``verdicts``, ``funk-hecke`` and
``density`` CLI op runs twice in one process, with every lru_cache of the
package cleared before each run, and must print the same bytes to stdout and
stderr and exit with the same code both times.  An op that expects no exit
code must print a report on stdout and exit with a code that comes with a
report; one that expects a code must exit with it and a message on stderr.  This also guards the
read-only arrays that jacobi_rule, _nu_rule and _series_coefficients hand
out from their caches.  perfbench/workloads.py is loaded by path; nothing
under perfbench/ is imported as a package."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dunklsphere import cli

# exit codes that come with a report on stdout: the verdicts and the threshold
REPORT_EXITS = (cli.EXIT_OK, cli.EXIT_NOT_FUNDAMENTAL, cli.EXIT_INDETERMINATE,
                cli.EXIT_THRESHOLD)
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dunklsphere":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _runs_twice(capsys, workload, seed):
    ops = [op for op in _workloads().build(workload, seed) if op["kind"] == "cli"]
    assert ops
    runs = []
    for _ in range(2):
        _clear_package_caches()
        run = []
        for op in ops:
            code = cli.main(op["argv"])
            run.append((op["id"], code, *capsys.readouterr()))
        runs.append(run)
    for op, (_, code, out, err) in zip(ops, runs[0]):
        if op["expect_exit"] is None:
            assert out and code in REPORT_EXITS, op["id"]
        else:
            assert code == op["expect_exit"] and err, op["id"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", [1, 41])
def test_verdicts_reports_repeat_in_one_process(capsys, seed):
    _runs_twice(capsys, "verdicts", seed)


@pytest.mark.parametrize("seed", [1, 41])
@pytest.mark.parametrize("workload", ["funk-hecke", "density"])
def test_kernel_reports_repeat_in_one_process(capsys, workload, seed):
    _runs_twice(capsys, workload, seed)
