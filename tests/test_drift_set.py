"""scripts/drift_set.py: every case's config passes the command line's
config parsers; no case is run."""
import importlib.util
from pathlib import Path

import pytest

from thermofem.cli import mms_config_from_dict, scenario_config_from_dict

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "drift_set.py"
_spec = importlib.util.spec_from_file_location("drift_set", SCRIPT)
drift_set = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift_set)

# (subcommand, degree, steps) of each case; a study's steps are final_time / tau.
EXPECTED = {
    "euler_p1": ("mms", 1, 32),
    "euler_p1_kuznetsov": ("mms", 1, 32),
    "bdf2_p2": ("mms", 2, 32),
    "bdf2_p3": ("mms", 3, 16),
    "example3_p1": ("scenario", 1, 8),
    "example2_p1": ("scenario", 1, 10),
    "example2_p2": ("scenario", 2, 6),
    "example2_p3": ("scenario", 3, 6),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_case_config_parses(name):
    command, data = drift_set.cases()[name]
    want_command, degree, steps = EXPECTED[name]
    assert command == want_command
    if command == "mms":
        config = mms_config_from_dict(data)
        assert round(config.final_time / config.tau) == steps
    else:
        config = scenario_config_from_dict(data)
        assert config.n_steps == steps
        assert list(config.resolved_snapshots) == [steps]
    assert config.degree == degree


def test_case_names():
    assert set(drift_set.cases()) == set(EXPECTED)
