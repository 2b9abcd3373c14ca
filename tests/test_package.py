"""The package's public surface: every name in ``analogia.__all__`` exists,
so does every function the benchmark's traced runs wrap, and the README
names every module and command."""

import re
from pathlib import Path

import analogia
from analogia import cli

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
README = (REPO / "README.md").read_text()


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


def test_readme_layout_names_every_module():
    layout = README.split("## Layout", 1)[1].split("```")[1]
    modules = {path.name for path in (REPO / "src" / "analogia").glob("*.py") if not path.name.startswith("_")}
    assert modules - set(re.findall(r"^  (\w+\.py) ", layout, re.M)) == set()


def test_readme_command_table_names_every_command():
    assert set(cli._COMMANDS) - set(re.findall(r"^\| `([\w-]+)` \|", README, re.M)) == set()
