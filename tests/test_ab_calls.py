"""scripts/ab_calls.py: its command line, and its refusal of a tree that
has no benchmark; no workload is run."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_calls", ROOT / "scripts" / "ab_calls.py")
ab_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_calls)


@pytest.fixture(autouse=True)
def no_calls(monkeypatch):
    def call(tree, workload):
        raise AssertionError("a workload call was made")

    monkeypatch.setattr(ab_calls, "call", call)


def test_help(capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_calls.main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for word in ("tree_a", "tree_b", "--workload", "--pairs"):
        assert word in out


@pytest.mark.parametrize("order", ["a", "b"])
def test_tree_without_perfbench_rejected(tmp_path, capsys, order):
    bare = tmp_path / "bare"
    (bare / "src").mkdir(parents=True)
    trees = [str(ROOT), str(bare)] if order == "b" else [str(bare), str(ROOT)]
    with pytest.raises(SystemExit) as exit_info:
        ab_calls.main(trees + ["--workload", "mms-p1", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "has no perfbench/workloads.py" in capsys.readouterr().err


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_calls.main([str(ROOT), str(ROOT), "--workload", "mms-p1", "--pairs", "0"])
    assert exit_info.value.code == 2
    assert "--pairs" in capsys.readouterr().err


A_WALLS = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


@pytest.mark.parametrize("b_walls,gain", [
    ([w - 0.10 for w in A_WALLS], True),
    # B faster in 9 of 10 pairs, and a tie counts for neither side
    ([w - 0.10 for w in A_WALLS[:9]] + [A_WALLS[9]], True),
    ([w - 0.10 for w in A_WALLS[:8]] + A_WALLS[8:], False),
    # faster in every pair, by less than the spread of A's own runs
    ([w - 0.01 for w in A_WALLS], False),
], ids=["ten_of_ten", "nine_and_a_tie", "eight_of_ten", "within_spread"])
def test_verdict_applies_the_gain_rule(b_walls, gain):
    line = ab_calls.verdict(A_WALLS, b_walls)
    assert line.startswith("verdict: gain" if gain else "verdict: no gain shown")


def test_verdict_needs_ten_pairs():
    line = ab_calls.verdict(A_WALLS[:9], [w - 0.10 for w in A_WALLS[:9]])
    assert line.startswith("verdict: no gain shown (B faster in 9 of 9 pairs")


def test_main_prints_the_verdict_last(tmp_path, monkeypatch, capsys):
    trees = []
    for name in ("a", "b"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "workloads.py").write_text("")
        (tmp_path / name / "src").mkdir()
        trees.append(str(tmp_path / name))
    walls = {"a": iter(A_WALLS), "b": iter(w - 0.10 for w in A_WALLS)}

    def call(tree, workload):
        return {"wall_s": next(walls[tree.name]), "failed": 0, "attempted": 4,
                "errors": [], "peak_rss_mb": 100.0}

    monkeypatch.setattr(ab_calls, "call", call)
    assert ab_calls.main(trees + ["--workload", "mms-p1", "--pairs", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].endswith("B faster in 10 of 10 pairs")
    assert lines[-1].startswith("verdict: gain (B faster in 10 of 10 pairs")
