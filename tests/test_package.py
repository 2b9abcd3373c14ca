"""The package's public surface: every name in ``analogia.__all__`` exists,
and so does every function the benchmark's traced runs wrap."""

from pathlib import Path

import analogia

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in analogia.__all__ if not hasattr(analogia, name)] == []
    assert len(set(analogia.__all__)) == len(analogia.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from analogia import *", namespace)
    assert set(analogia.__all__) <= namespace.keys()


def test_perfbench_wrapper_targets_resolve(monkeypatch):
    """A target removed or renamed in the package raises LookupError here,
    instead of only failing a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    spans.LayerProbe(workloads.MODULES, spans.Tracer("t")).require_targets()
