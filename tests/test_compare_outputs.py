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
        "columns.csv: step 0, x 0.091; added new; removed old",
        "grid.vtk: structure differs",
        "keys.json: a 0.33; added c; removed b",
        "renamed.csv: structure differs",
        "steps.csv: step 0, x 1e-06",
        "sub/snapshot.vtk: identical",
        "summary.json: n 0, rates 0.091",
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
        "run/steps.csv: step 0, iterations 0.25, increment 0, factorizations 0; "
        "iterations 7 -> 6, factorizations 2 -> 2",
        "same/steps.csv: identical; iterations 2 -> 2, factorizations 1 -> 1",
    ]

    (a / "run" / "steps.csv").write_bytes((b / "run" / "steps.csv").read_bytes())
    assert compare_outputs.main([str(a), str(b)]) == 0
