"""Command-line interface tests.

All invocations go through main(argv) in-process; exit codes follow the
contract 0 = success, 1 = runtime failure, 2 = configuration error
(argparse's own usage errors surface as SystemExit with code 2).
"""
import json
import pathlib

import numpy as np
import pytest

from thermofem.cli import (ConfigError, main, mms_config_from_dict,
                           scenario_config_from_dict)
from thermofem.mesh import focused_domain_mesh, load_mesh

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TINY_MMS = {"variant": "westervelt", "scheme": "euler", "degree": 1,
            "meshes": [2, 4, 8], "tau": 0.125, "final_time": 0.25}


class TestConfigParsing:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["mms", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["mms", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["mms", "--config", str(path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_MMS, mesh_sizes=[2, 4, 8]))
        assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        assert "mesh_sizes" in capsys.readouterr().err
        cfg = write_config(tmp_path, dict(TINY_MMS, solver="direct"))  # not configurable
        assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        assert "solver" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path):
        cfg = write_config(tmp_path, dict(TINY_MMS, tau="small"))
        assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        with pytest.raises(ConfigError, match="must be"):
            mms_config_from_dict(dict(TINY_MMS, degree=2.5))

    def test_meshes_must_be_integer_list(self):
        with pytest.raises(ConfigError, match="meshes"):
            mms_config_from_dict(dict(TINY_MMS, meshes=[2.0, 4.0]))
        with pytest.raises(ConfigError, match="meshes"):
            mms_config_from_dict(dict(TINY_MMS, meshes=[]))

    def test_scenario_unknown_key(self, tmp_path):
        for data in ({"example": 2, "mesh": 1.0}, {"example": 2, "solver": "direct"}):
            cfg = write_config(tmp_path, data)
            assert main(["scenario", "--config", cfg, "--dry-run"]) == 2

    def test_scenario_needs_example(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"h": 3e-3})
        assert main(["scenario", "--config", cfg, "--dry-run"]) == 2
        assert "example" in capsys.readouterr().err

    def test_scenario_snapshots_beyond_run(self):
        with pytest.raises(ConfigError, match="snapshot"):
            scenario_config_from_dict({"example": 2, "final_time": 1e-6,
                                       "snapshots": [99]})

    def test_scenario_negative_snapshot(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="snapshot"):
            scenario_config_from_dict({"example": 2, "final_time": 1e-6, "snapshots": [-1]})
        cfg = write_config(tmp_path, {"example": 2, "h": 8e-3, "final_time": 5e-7,
                                      "snapshots": [-1]})
        assert main(["scenario", "--config", cfg, "--dry-run"]) == 2
        assert "snapshot" in capsys.readouterr().err

    def test_tiny_h_rejected_before_meshing(self, tmp_path, capsys):
        # h = 1e-9 would mesh about 2.6e16 cells; dry runs only, so a
        # broken check can never start that mesh.
        cfg = write_config(tmp_path, {"example": 3, "h": 1e-9})
        assert main(["scenario", "--config", cfg, "--dry-run"]) == 2
        assert "above the cap of MAX_CELLS = 1,000,000" in capsys.readouterr().err
        cfg = write_config(tmp_path, {"example": 3, "h": 7.6e-4})
        assert main(["scenario", "--config", cfg, "--dry-run"]) == 0

    def test_huge_unit_square_rejected_before_meshing(self, tmp_path, capsys):
        # n = 100000 would mesh 2e10 cells; dry run only.
        cfg = write_config(tmp_path, dict(TINY_MMS, meshes=[8, 16, 100000]))
        assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        assert "above the cap of MAX_CELLS = 1,000,000" in capsys.readouterr().err

    def test_repeated_meshes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_MMS, meshes=[2, 2, 2]))
        assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_dry_run_rejects_bad_values(self, tmp_path, capsys):
        # values that pass the type checks but cannot run fail before compute
        for data in ({"tau": -1, "fp_tol": 5}, {"tau": 0.3, "final_time": 1},
                     dict(TINY_MMS, fp_max_iter=0)):
            cfg = write_config(tmp_path, data)
            assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        for data in ({"example": 2, "h": -1, "fp_tol": 5, "fp_max_iter": 0},
                     {"example": 3, "h": 0.05}, {"example": 2, "fp_tol": 5},
                     {"example": 2, "fp_max_iter": 0}):
            cfg = write_config(tmp_path, data)
            assert main(["scenario", "--config", cfg, "--dry-run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_one_step_bdf2_study_rejected(self, tmp_path, capsys):
        # A one-step run has a single theta history level, and the BDF2
        # error norm needs two: a config error, not a failure after compute.
        cfg = write_config(tmp_path, dict(TINY_MMS, scheme="bdf2", tau=0.25, final_time=0.25))
        assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        assert main(["mms", "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "at least 2 steps" in capsys.readouterr().err
        cfg = write_config(tmp_path, dict(TINY_MMS, tau=0.25, final_time=0.25))
        assert main(["mms", "--config", cfg, "--dry-run"]) == 0

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match="degree"):
            mms_config_from_dict(dict(TINY_MMS, degree=True))


class TestArgparseContract:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["mms", "--bogus"])
        assert exc.value.code == 2

    def test_example_choices(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--example", "4", "--dry-run"])
        assert exc.value.code == 2


class TestMmsCommand:
    def test_dry_run_shipped_config(self, capsys):
        assert main(["mms", "--config", str(CONFIGS / "example1_euler_p1.json"),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "meshes=[8, 16, 32, 64]" in out
        assert "scheme=euler" in out

    def test_all_shipped_study_configs_validate(self):
        for name in ("example1_euler_p1.json", "example1_euler_p1_kuznetsov.json",
                     "example1_bdf2_p2.json", "example1_bdf2_p3.json"):
            with open(CONFIGS / name) as fh:
                config = mms_config_from_dict(json.load(fh))
            assert len(config.meshes) == 4

    def test_too_few_meshes(self, tmp_path, capsys):
        for meshes in ([8], [8, 16]):
            cfg = write_config(tmp_path, dict(TINY_MMS, meshes=meshes))
            assert main(["mms", "--config", cfg, "--dry-run"]) == 2
        assert "three meshes" in capsys.readouterr().err

    def test_bad_jobs(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MMS)
        assert main(["mms", "--config", cfg, "--jobs", "0", "--dry-run"]) == 2

    def test_tiny_study_writes_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_MMS)
        out = tmp_path / "results"
        assert main(["mms", "--config", cfg, "--output", str(out)]) == 0
        table = out / "mms_westervelt_euler_p1.csv"
        loglog = out / "mms_westervelt_euler_p1_loglog.csv"
        assert table.exists() and loglog.exists()
        lines = table.read_text().splitlines()
        assert lines[0] == "h,E_tau,L2_error,rate_E,rate_L2"
        assert len(lines) == 1 + len(TINY_MMS["meshes"])
        assert "rate" in capsys.readouterr().out

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MMS)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["mms", "--config", cfg, "--output", str(out)]) == 0
            blobs.append((out / "mms_westervelt_euler_p1.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestScenarioCommand:
    def test_dry_run_shipped_examples(self, capsys):
        assert main(["scenario", "--config", str(CONFIGS / "example2.json"),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "example=2" in out and "snapshots=[10, 50, 100, 200, 300]" in out
        assert main(["scenario", "--config", str(CONFIGS / "example3.json"),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "example=3" in out and "amplitude=1e+12" in out

    def test_dry_run_selector_only(self, capsys):
        assert main(["scenario", "--example", "3", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "example=3" in out and "snapshots=[200, 300, 400]" in out

    def test_tiny_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"example": 2, "h": 8e-3,
                                      "final_time": 1e-6, "snapshots": [5, 10]})
        assert main(["scenario", "--config", cfg, "--output", str(tmp_path)]) == 0
        root = tmp_path / "example2"
        produced = sorted(p.name for p in root.iterdir())
        assert produced == ["snapshot_000005.csv", "snapshot_000005.vtk",
                            "snapshot_000010.csv", "snapshot_000010.vtk",
                            "steps.csv", "summary.json"]
        summary = json.loads((root / "summary.json").read_text())
        assert summary["n_steps"] == 10
        assert "example 2" in capsys.readouterr().out

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        # an intentionally impossible solver tolerance trips the fixed-point
        # divergence guard inside the run, after configuration passed
        cfg = write_config(tmp_path, {"example": 2, "h": 8e-3,
                                      "final_time": 5e-7,
                                      "fp_tol": 1e-30, "fp_max_iter": 1})
        assert main(["scenario", "--config", cfg, "--output", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err


class TestMeshgenCommand:
    def test_unit_square_counts(self, tmp_path, capsys):
        assert main(["meshgen", "--kind", "unit-square", "--parameter", "16",
                     "--out", "sq.csv", "--output", str(tmp_path)]) == 0
        assert "512 triangles" in capsys.readouterr().out
        mesh = load_mesh(tmp_path / "sq.csv")
        assert mesh.n_triangles == 512

    def test_unit_square_rejects_bad_parameter(self, capsys):
        assert main(["meshgen", "--kind", "unit-square", "--parameter", "0"]) == 2
        assert main(["meshgen", "--kind", "unit-square", "--parameter", "2.5"]) == 2
        for value in ("nan", "inf"):
            assert main(["meshgen", "--kind", "unit-square", "--parameter", value]) == 2

    def test_unit_square_cell_cap(self, tmp_path, capsys):
        # n = 708 is the smallest count above the cap (1,002,528 cells).
        assert main(["meshgen", "--kind", "unit-square", "--parameter", "708",
                     "--output", str(tmp_path)]) == 2
        assert "above the cap of MAX_CELLS = 1,000,000" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_focused_round_trip(self, tmp_path):
        assert main(["meshgen", "--kind", "focused-transducer", "--parameter", "3e-3",
                     "--out", "f.csv", "--output", str(tmp_path)]) == 0
        mesh = load_mesh(tmp_path / "f.csv")
        built = focused_domain_mesh(3e-3)
        assert mesh.n_vertices == built.n_vertices
        assert mesh.n_triangles == built.n_triangles
        np.testing.assert_array_equal(mesh.vertices, built.vertices)
        np.testing.assert_array_equal(mesh.triangles, built.triangles)

    def test_focused_rejects_bad_parameter(self):
        assert main(["meshgen", "--kind", "focused-transducer", "--parameter", "0"]) == 2
        assert main(["meshgen", "--kind", "focused-transducer", "--parameter", "nan"]) == 2


class TestOutputRoot:
    def test_env_var_sets_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMOFEM_OUTPUT_DIR", str(tmp_path))
        assert main(["meshgen", "--kind", "unit-square", "--parameter", "2",
                     "--out", "env.csv"]) == 0
        assert (tmp_path / "env.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        monkeypatch.setenv("THERMOFEM_OUTPUT_DIR", str(env_dir))
        assert main(["meshgen", "--kind", "unit-square", "--parameter", "2",
                     "--out", "m.csv", "--output", str(flag_dir)]) == 0
        assert (flag_dir / "m.csv").exists()
        assert not (env_dir / "m.csv").exists()
