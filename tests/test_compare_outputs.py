"""scripts/compare_outputs.py on two toy output trees."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_reports_identical_files_and_relative_drift_per_column(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "steps.csv": ("step,scheme,x\n1,euler,2.0\n2,euler,-4.0\n",
                      "step,scheme,x\n1,euler,2.0\n2,euler,-4.000004\n"),
        "summary.json": ('{"n": 3, "rates": [1.0, 0.5], "tag": "w"}',
                         '{"n": 3, "rates": [1.0, 0.55], "tag": "w"}'),
        "sub/snapshot.vtk": ("POINTS 2 double\n0 1.5\n", "POINTS 2 double\n0 1.5\n"),
        "grid.vtk": ("SCALARS u\n1.0 0\n", "SCALARS u\n1.0 0 0\n"),
        "renamed.csv": ("step,scheme\n1,euler\n", "step,scheme\n1,bdf2\n"),
        "columns.csv": ("step,x,old\n1,2.0,7\n2,4.0,8\n",
                        "step,new,x\n1,,2.0\n2,0.5,4.4\n"),
        "keys.json": ('{"a": 1.0, "b": [1, 2]}', '{"a": 1.5, "c": "tag"}'),
    }
    for name, (text_a, text_b) in files.items():
        for root, text in ((a, text_a), (b, text_b)):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    (a / "only_a.csv").write_text("x\n1\n")

    assert compare_outputs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "columns.csv: step 0 (0 of max), x 0.091 (0.091 of max); added new; removed old",
        "grid.vtk: structure differs",
        "keys.json: a 0.33 (0.33 of max); added c; removed b",
        "renamed.csv: structure differs",
        "steps.csv: step 0 (0 of max), x 1e-06 (1e-06 of max)",
        "sub/snapshot.vtk: identical",
        "summary.json: n 0 (0 of max), rates 0.091 (0.05 of max)",
        f"only in {a}: only_a.csv",
    ]

    (a / "only_a.csv").unlink()
    for name in files:
        (a / name).write_bytes((b / name).read_bytes())
    assert compare_outputs.main([str(a), str(b)]) == 0


def test_step_reports_get_summed_counts_of_each_side(tmp_path, capsys):
    # A relative difference of 0.25 in `iterations` does not say which way
    # the count moved; the sums do.
    a, b = tmp_path / "a", tmp_path / "b"
    header = "step,scheme,iterations,increment,factorizations\n"
    (a / "run").mkdir(parents=True)
    (b / "run").mkdir(parents=True)
    (a / "run" / "steps.csv").write_text(header + "1,euler,4,1e-11,2\n2,bdf2,3,2e-11,0\n")
    (b / "run" / "steps.csv").write_text(header + "1,euler,3,1e-11,2\n2,bdf2,3,2e-11,0\n")
    (a / "same").mkdir()
    (b / "same").mkdir()
    for root in (a, b):
        (root / "same" / "steps.csv").write_text(header + "1,euler,2,1e-11,1\n")

    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "run/steps.csv: step 0 (0 of max), iterations 0.25 (0.25 of max), "
        "increment 0 (0 of max), factorizations 0 (0 of max); "
        "iterations 7 -> 6, factorizations 2 -> 2",
        "same/steps.csv: identical; iterations 2 -> 2, factorizations 1 -> 1",
    ]

    (a / "run" / "steps.csv").write_bytes((b / "run" / "steps.csv").read_bytes())
    assert compare_outputs.main([str(a), str(b)]) == 0


def test_column_scaled_figure_discounts_near_zero_entries(tmp_path, capsys):
    # Rounding noise on an entry near zero decides the per-value figure
    # (0.2e-47 / 2.9e-47); against the column's largest |value| it is
    # noise.  The drift of the other column is at its scale either way.
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "snapshot.csv").write_text("theta,u\n1e-10,2.0\n2.7e-47,-4.0\n")
    (b / "snapshot.csv").write_text("theta,u\n1e-10,2.0\n2.9e-47,-4.4\n")

    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "snapshot.csv: theta 0.069 (2e-38 of max), u 0.091 (0.091 of max)"]
    assert compare_outputs.column_scaled_difference([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert compare_outputs.column_scaled_difference([float("nan")], [float("nan")]) == 0.0
