"""Golden values: small scenario and manufactured runs must reproduce the
headline numbers recorded by scripts/record_golden.py to GOLDEN_RTOL
relative.  The acceptance bands are far looser; this catches a numerical
change that moves results by more than the fixed-point tolerance allows."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_golden.py"
_spec = importlib.util.spec_from_file_location("record_golden", SCRIPT)
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)

GOLDEN = json.loads(record_golden.GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(record_golden.CASES)


@pytest.mark.parametrize("name", record_golden.CASES)
def test_matches_golden(name):
    got = record_golden.compute(name)
    expected = GOLDEN[name]
    assert sorted(got) == sorted(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=record_golden.GOLDEN_RTOL, abs=0.0), key
