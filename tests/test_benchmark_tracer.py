"""The benchmark tracer in ``perfbench/`` patches library names by module
attribute; a name it patches must stay bound where it looks it up, and
every patch must come off again."""

from pathlib import Path

import pytest

from partition_snf import Partition, cli, snf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
