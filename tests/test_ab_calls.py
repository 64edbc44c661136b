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
