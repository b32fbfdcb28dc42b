"""The comparison of scripts/diff_experiments.py on synthetic outputs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "diff_experiments",
    Path(__file__).resolve().parents[1] / "scripts" / "diff_experiments.py")
diff_experiments = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_experiments)

HEAD = "experiment,problem,solver,seed,status,iters\n"


def _write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_identical_outputs_but_the_manifest_compare_equal(tmp_path):
    files = {"a.csv": "1\n", "summary.csv": HEAD + "e,p,s,1,converged,5\n"}
    base = _write(tmp_path / "base", {**files, "manifest.json": "{}"})
    change = _write(tmp_path / "change", {**files, "manifest.json": "{\"wall_s\": 2}"})
    assert diff_experiments.compare(base, change) == ([], False)


def test_moved_files_and_summary_rows_are_listed(tmp_path):
    base = _write(tmp_path / "base", {
        "a.csv": "1\n", "gone.csv": "", "summary.csv": HEAD
        + "e,p,s,1,converged,5\ne,p,t,1,converged,7\n"})
    change = _write(tmp_path / "change", {
        "a.csv": "2\n", "new.tsv": "", "summary.csv": HEAD
        + "e,p,s,1,converged,5\ne,p,t,1,stalled,9\n"})
    lines, differ = diff_experiments.compare(base, change)
    assert differ
    assert lines == [
        "  only in base: gone.csv",
        "  only in change: new.tsv",
        "  differs: a.csv",
        "  differs: summary.csv",
        "  summary row p,t,1:",
        "    base: e,p,t,1,converged,7",
        "    change: e,p,t,1,stalled,9",
    ]
