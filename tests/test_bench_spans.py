"""The traced bench run wraps library functions by name (bench/spans.py).

Renaming or deleting one of them breaks only the traced run, so this checks
that every wrap installs and that uninstall puts every original back.
"""

from __future__ import annotations

from pathlib import Path

from satmigrate import cli, controlfile, encoder, engine, repo, satcore

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    owners = (cli, controlfile, encoder, engine, repo, satcore,
              satcore.DpllSolver)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    assert [dict(vars(owner)) for owner in owners] == before
