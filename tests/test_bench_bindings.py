"""The benchmark's traced mode still finds every binding it patches.

``bench/run.py --trace 1`` wraps pipeline functions at the module names the
pipeline calls them through (``trace_targets``), some of them imports that
exist only for it.  Renaming or deleting such a name breaks the traced run
without failing any other test, so this module loads the benchmark script
by path and checks its bindings and observers on a small experiment.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import mphp
from mphp.experiment import parse_config, rows_to_csv, run_experiment

from conftest import CO_LOCATED

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling modules spans and yardstick
    try:
        spec = importlib.util.spec_from_file_location("mphp_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their annotations through sys.modules.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("mphp_bench_run", None)
        sys.path.remove(str(BENCH))


def test_every_traced_binding_exists(bench_run):
    targets = bench_run.trace_targets()
    missing = [f"{module.__name__}.{attribute}" for module, attribute, _ in targets if not hasattr(module, attribute)]
    assert missing == []


def test_traced_run_sees_valid_designs(bench_run):
    config = parse_config("M = 8\nK = 2\nG = 2\nn_slots = 1\n")
    untraced = rows_to_csv(run_experiment(config))
    seen = bench_run.Observed()
    with bench_run.spans.Tracer(bench_run.trace_targets(), bench_run.observers(seen)) as tracer:
        traced = rows_to_csv(run_experiment(config))
    assert seen.invalid_designs == []
    assert seen.groups_attempted > 0
    assert "baselines.design_long_term" in {span[0] for span in tracer.spans}
    assert traced == untraced


def test_traced_run_counts_outages(bench_run):
    config = parse_config(CO_LOCATED)
    untraced = rows_to_csv(run_experiment(config))
    seen = bench_run.Observed()
    with bench_run.spans.Tracer(bench_run.trace_targets(), bench_run.observers(seen)):
        traced = rows_to_csv(run_experiment(config))
    assert seen.outage_groups > 0
    assert traced == untraced


# Traced, but no pipeline stage calls it: the leakage is a diagnostic that demo 04 and the tests read.
DEAD_BINDINGS = {"metrics.intra_group_leakage"}


def test_every_live_binding_records_a_span(bench_run):
    """A binding the pipeline stops calling through still exists, so only
    its spans show that the benchmark's per-layer metric has gone dead."""
    config = parse_config("M = 8\nK = 2\nG = 2\nn_slots = 2\nsweep.parameter = M\nsweep.values = 8, 16\n")
    targets = bench_run.trace_targets()
    with bench_run.spans.Tracer(targets, bench_run.observers(bench_run.Observed())) as tracer:
        run_experiment(config)
    unseen = {name for _, _, name in targets} - {span[0] for span in tracer.spans}
    assert unseen == DEAD_BINDINGS


def unread_imports(source):
    """Names a module's source imports but never reads (``__all__`` counts as a read)."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_unread_import_is_a_traced_binding(bench_run):
    """A module may import a name it never reads only for the benchmark to
    patch (today the ``hermitian_eig`` imports of ``baselines``, ``channel``
    and ``metrics``), so a leftover import, or one kept after the benchmark
    stops tracing it, fails here."""
    assert unread_imports("import os.path\nfrom a import b as c, d\n__all__ = ['d']\nos.sep\n") == {"c"}
    traced = {}
    for module, attribute, _ in bench_run.trace_targets():
        traced.setdefault(module.__name__, set()).add(attribute)
    modules = [mphp, *(importlib.import_module(info.name) for info in pkgutil.iter_modules(mphp.__path__, "mphp."))]
    for module in modules:
        unread = unread_imports(Path(module.__file__).read_text(encoding="utf-8"))
        assert unread <= traced.get(module.__name__, set()), module.__name__
