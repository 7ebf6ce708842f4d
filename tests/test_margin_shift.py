import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "margin_shift", Path(__file__).resolve().parents[1] / "tools"
    / "margin_shift.py")
margin_shift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(margin_shift)

HEADER = "x,t,alpha,s,lhs,rhs,margin,stderr\n"


def _run(root, name, code, rows, passed, worst_x):
    run = root / "seed-0" / name
    (run / "files").mkdir(parents=True)
    (run / "exit").write_text(f"{code}\n")
    (run / "files" / "margins-local.csv").write_text(
        HEADER + "".join(f"{x},0.5,1.0,,{lhs},{rhs},{rhs - lhs},0.0\n"
                         for x, lhs, rhs in rows))
    check = {"id": "local", "pass": passed, "worst": {
        "x": [worst_x], "t": 0.5, "alpha": 1.0, "s": None}}
    (run / "files" / "summary.json").write_text(json.dumps(
        {"checks": [check]}))


def test_identical_trees_report_nothing(tmp_path):
    for tree in ("a", "b"):
        _run(tmp_path / tree, "grid-0-csv", 0,
             [(-1.0, 1.0, 2.0), (1.0, 3.0, 3.5)], True, 1.0)
    lines, changed = margin_shift.compare(tmp_path / "a", tmp_path / "b")
    assert lines[0] == "largest margin shift (scaled): 0"
    assert not changed


def test_shift_flip_exit_and_worst(tmp_path):
    _run(tmp_path / "a", "grid-0-csv", 0,
         [(-1.0, 1.0, 2.0), (1.0, 4.0, 4.5)], True, 1.0)
    _run(tmp_path / "b", "grid-0-csv", 1,
         [(-1.0, 1.0, 2.0), (1.0, 4.0, 4.25)], False, -1.0)
    lines, changed = margin_shift.compare(tmp_path / "a", tmp_path / "b")
    # the margin at x = 1 moved by 0.25, scaled by max(1, 4, 4.5)
    assert lines[0].startswith("largest margin shift (scaled): 0.0556 in "
                               "seed-0/grid-0-csv/margins-local.csv row 1")
    text = "\n".join(lines)
    assert "pass/fail flips: 1" in text and "pass True -> False" in text
    assert "exit-status changes: 1" in text and "exit 0 -> 1" in text
    assert "moved worst records: 1" in text
    assert changed


def test_records_lists_each_moved_record(tmp_path):
    _run(tmp_path / "a", "grid-0-csv", 0,
         [(-1.0, 1.0, 2.0), (1.0, 4.0, 4.5)], True, 1.0)
    _run(tmp_path / "b", "grid-0-csv", 0,
         [(-1.0, 1.0, 2.0), (1.0, 4.0, 4.25)], True, 1.0)
    lines, changed = margin_shift.compare(tmp_path / "a", tmp_path / "b",
                                          records=True)
    assert lines[-2:] == [
        "moved records: 1",
        "  seed-0/grid-0-csv/margins-local.csv row 1 (x=1.0, t=0.5, "
        "alpha=1.0, s=): margin 0.5 -> 0.25, stderr 0.0 -> 0.0"]
    assert not changed
    assert "moved records" not in "\n".join(
        margin_shift.compare(tmp_path / "a", tmp_path / "b")[0])


def test_shifts_in_combined_stderrs(tmp_path):
    # a margin that moved by 0.25 with stderrs 0.3 and 0.4 moved by 0.5
    # combined stderrs
    for tree, rhs, se in (("a", 4.5, 0.3), ("b", 4.25, 0.4)):
        _run(tmp_path / tree, "mc-0-csv", 0, [(1.0, 4.0, rhs)], True, 1.0)
        path = tmp_path / tree / "seed-0" / "mc-0-csv" / "files" \
            / "margins-local.csv"
        path.write_text(path.read_text().replace(",0.0\n", f",{se}\n"))
    lines, _ = margin_shift.compare(tmp_path / "a", tmp_path / "b",
                                    records=True)
    assert lines[1] == "  0.0556  seed-0/mc-0-csv  (0.5 combined stderrs)"
    assert lines[-1].endswith("stderr 0.3 -> 0.4, 0.5 combined stderrs")
