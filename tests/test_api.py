"""The public names and the hooks the benchmark harness wraps all resolve.

bench/spans.py wraps package functions by (module, attribute) and
bench/run.py times each row through analysis.analyze_table and
analysis.canonical_form, so an API cut that drops one of them would break
`bench/run.py --trace 1`.  Only spans.py is loaded: run.py sets BLAS thread
variables when it is imported.
"""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cgbell

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"

REMOVED = (
    "DeterministicStrategy",
    "enumerate_strategies",
    "relabelings",
    "born_probability",
    "born_marginal_a",
    "born_marginal_b",
    "exact_rank",
    # verification-only: references in tests/oracles.py and tests/test_quantum.py
    "Behavior",
    "ScenarioMismatchError",
    "evaluate",
    "strategy_behavior",
    "quantum_value",
    "seesaw_step",
    "Relabeling",
    "apply_relabeling",
    "random_relabeling",
    # detect_lifting returns the reduced CgTable itself
    "Lifting",
    # compare_reports returns the failing lines themselves
    "ColumnDiff",
    # correlation_form returns the correlator matrix g itself
    "CorrelatorForm",
    # quantum._pi4_certified_value tries both pi/4 dual points itself
    "_pi4_cannot_violate",
    "_pi4_dual_holds",
)


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_exports_resolve_once():
    assert len(cgbell.__all__) == len(set(cgbell.__all__))
    for name in cgbell.__all__:
        assert hasattr(cgbell, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_stay_unexported(name):
    assert name not in cgbell.__all__
    assert not hasattr(cgbell, name)
    for module in pkgutil.iter_modules(cgbell.__path__):
        assert not hasattr(importlib.import_module(f"cgbell.{module.name}"), name), module.name


def test_benchmark_hooks_resolve(spans):
    hooks = {(module, attr) for module, attr, _ in spans.WRAPPED}
    hooks |= {("analysis", "analyze_table"), ("analysis", "canonical_form")}
    for module, attr in sorted(hooks):
        assert callable(getattr(importlib.import_module(f"cgbell.{module}"), attr)), (module, attr)


def test_cli_loads_no_undeclared_module():
    # numpy is the only runtime dependency; scipy may be installed but is not
    # declared.  The process pool is loaded only when --workers asks for one.
    code = "import sys, cgbell.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    modules = set(run.stdout.split())
    loaded = {name.split(".")[0] for name in modules}
    assert loaded.isdisjoint({"scipy", "pytest", "hypothesis", "multiprocessing"})
    assert "concurrent.futures.process" not in modules
