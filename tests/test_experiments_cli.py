"""``python -m repro.experiments``: one table per call, its check decides
the exit status."""
import pandas as pd
import pytest

from repro.experiments import t1_space_vs_n, t4_mergeability
from repro.experiments.__main__ import main


def test_quick_table_prints_claim_and_table(capsys):
    assert main(["t1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert t1_space_vs_n.PAPER_CLAIM in out
    assert "== t1_space_vs_n ==" in out and "req_retained" in out
    assert "derived: {'req_logn_exponent'" in out
    assert "check passed" in out


def test_unknown_table_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["t7"])
    assert e.value.code == 2


def test_failing_check_exits_nonzero(monkeypatch, capsys):
    def failing(df):
        raise AssertionError("shape lost")

    monkeypatch.setattr(t1_space_vs_n, "run", lambda spark, quick: pd.DataFrame({"n": [1]}))
    monkeypatch.setattr(t1_space_vs_n, "check", failing)
    assert main(["t1"]) != 0
    assert "shape lost" in capsys.readouterr().err


def test_t4_reuses_and_keeps_the_session(spark, monkeypatch):
    seen = []

    def fake_run(session, quick):
        seen.append((session, quick))
        return pd.DataFrame({"weight_ok": [True], "max_rel_err": [0.001]})

    monkeypatch.setattr(t4_mergeability, "run", fake_run)
    assert main(["t4", "--quick"]) == 0
    assert seen == [(spark, True)]
    assert spark.range(3).count() == 3
