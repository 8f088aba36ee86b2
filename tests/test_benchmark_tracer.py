"""The benchmark tracer in ``perfbench/`` patches library names by module
attribute; a name it patches must stay bound where it looks it up, every
patch must come off again, and an import kept only for it says so."""

import ast
from pathlib import Path

import pytest

from partition_snf import Partition, cli, snf

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LIBRARY = ROOT / "src" / "partition_snf"
TRACER_ONLY = "# noqa: F401  (the benchmark tracer patches it here)"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_install_traces_certify_and_uninstall_restores(tracer_module, tmp_path):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        snf.snf_recurrence(Partition((3, 2)))
        out = tmp_path / "snf.json"
        code = cli.main(["snf", "2,1", "--format", "json", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert out.read_text().startswith("{")
    assert any(span[0] == "snf.certify" for span in tracer.spans)
    assert len(patched) > len(tracer_module.SPANNED)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_reductions_look_weights_up_where_the_tracer_counts(tracer_module):
    # The tracer's memo metrics divide by the lookups it counts, so a
    # reduction must look its weights up through a patched weight_at.
    for reduce in (snf.snf_recurrence, lambda lam: snf.snf_inductive(lam, 2, 2)):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            reduce(Partition((30,)))
        finally:
            tracer.uninstall()
        counts = tracer.counts
        assert counts["weights.memo_hits"] + counts["weights.memo_misses"] > 0


def test_tracer_only_imports_are_the_patch_points_nothing_else_needs(tracer_module):
    # A name the tracer patches in a module that neither defines nor uses
    # it is there only for the tracer, and its import says so; a marked
    # import of a name the tracer no longer patches there is dead.
    patched = {(module.__name__, attr) for module, attr, _ in tracer_module.SPANNED}
    patched |= {
        (module.__name__, "weight_at") for module in tracer_module.WEIGHT_LOOKUPS
    }
    marked, needed_only_by_tracer = set(), set()
    for path in sorted(LIBRARY.glob("*.py")):
        module = f"partition_snf.{path.stem}"
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        marked |= {
            (module, alias.asname or alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and lines[node.lineno - 1].endswith(TRACER_ONLY)
            for alias in node.names
        }
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        needed_only_by_tracer |= {
            (owner, attr)
            for owner, attr in patched
            if owner == module and attr not in defined | used
        }
    stale = sorted(marked - needed_only_by_tracer)
    assert not stale, f"the tracer no longer needs these; delete the imports: {stale}"
    unmarked = sorted(needed_only_by_tracer - marked)
    assert not unmarked, f"bound only for the tracer, but not marked: {unmarked}"
