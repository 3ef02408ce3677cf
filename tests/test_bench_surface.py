"""The benchmark reaches the library by name; every such name must exist.

`bench/tracing.py` wraps module functions and `CMTable` methods by name,
and `bench/workloads.py` calls `sx.<name>` on the package, so deleting
or renaming one of them would break the benchmark, not the tests.
"""

import importlib
import importlib.util
import pathlib
import re

import sphex
from sphex.cayley_menger import CMTable

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_wrapped_functions_resolve():
    missing = []
    for modname, names, _ in load_tracing().WRAPPED:
        mod = importlib.import_module(f"sphex.{modname}")
        missing += [f"sphex.{modname}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert not missing


def test_wrapped_cmtable_methods_resolve():
    names = [name for name, _, _ in load_tracing().CMTABLE]
    assert names
    assert [name for name in names if name not in vars(CMTable)] == []


def test_workload_package_names_resolve():
    used = set(re.findall(r"\bsx\.(\w+)",
                          (BENCH / "workloads.py").read_text()))
    assert used
    assert sorted(name for name in used if not hasattr(sphex, name)) == []
