"""The benchmark's tracer patches the names in perfbench/tracing.py's TRACED
by attribute lookup, so a renamed or deleted name breaks every traced run.
The file is loaded by path; nothing under perfbench/ is imported as a
package.  The package's own export list is held to the same rule."""

import importlib
import importlib.util
from pathlib import Path

import dunklsphere

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_on_the_package():
    traced = _traced()
    assert traced
    for mod_name, attr, _, _ in traced:
        owner = importlib.import_module(f"dunklsphere.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_every_exported_name_resolves_once():
    names = dunklsphere.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(dunklsphere, name), name
