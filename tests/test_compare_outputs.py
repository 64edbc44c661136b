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
    }
    for name, (text_a, text_b) in files.items():
        for root, text in ((a, text_a), (b, text_b)):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    (a / "only_a.csv").write_text("x\n1\n")

    assert compare_outputs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "grid.vtk: structure differs",
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
