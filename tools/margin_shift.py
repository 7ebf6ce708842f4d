"""Compare the margins of two `golden_reports.py` trees.

    python tools/margin_shift.py BEFORE AFTER

For every run the two trees share, it pairs the records of each report
(margin CSVs, and JSON reports that list their records) and prints:

- the largest margin shift, scaled by max(1, |lhs|, |rhs|) of both trees,
  with the record where it happens, and the largest shift of each run that
  moved at all;
- every check whose pass/fail verdict flips;
- every run whose exit status changes;
- every check whose `worst` record moved to another (x, t, alpha, s);
- with --records, every record whose margin or stderr moved, with both
  trees' values and, where the records carry stderrs, the shift in
  combined stderrs, |margin shift| / sqrt(stderr_a^2 + stderr_b^2), of
  which the run lines give each run's largest.

Runs, reports or records found in one tree only are listed too.  Exits 1
when anything but the margins themselves changed, else 0.  Byte identity
is `diff -r`'s job; this says how far a change that is not bitwise moved
the numbers.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

WHERE = ("x", "t", "alpha", "s")


def _runs(root: Path) -> dict:
    """run directory (relative) -> its path, for every directory holding
    an `exit` file."""
    return {str(p.parent.relative_to(root)): p.parent
            for p in sorted(root.rglob("exit"))}


def _checks(doc, out: dict, key: str) -> None:
    # every object with a verdict and a worst record, at any depth
    if isinstance(doc, dict):
        if "pass" in doc and "worst" in doc:
            name = f"{key}:{doc.get('id', doc.get('label', ''))}"
            out[name] = doc
        for v in doc.values():
            _checks(v, out, key)
    elif isinstance(doc, list):
        for v in doc:
            _checks(v, out, key)


def _read(run: Path) -> tuple:
    """(records, checks) of one run: records as {(file, index): row} with
    the WHERE fields, lhs, rhs and margin as strings; checks as
    {name: check object}."""
    records, checks = {}, {}
    for path in sorted((run / "files").glob("*")):
        if path.suffix == ".csv":
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            if rows and {"lhs", "rhs", "margin"} <= rows[0].keys():
                records.update(((path.name, i), row)
                               for i, row in enumerate(rows))
        elif path.suffix == ".json":
            doc = json.loads(path.read_text())
            _checks(doc, checks, path.name)
            if isinstance(doc, dict) and isinstance(doc.get("records"), list):
                records.update(((path.name, i), {k: json.dumps(r.get(k))
                                                 for k in WHERE}
                                | {k: r.get(k) for k in ("lhs", "rhs", "margin",
                                                        "stderr")})
                               for i, r in enumerate(doc["records"]))
    return records, checks


def _num(value) -> float:
    return float(value) if value not in ("", None) else float("nan")


def _shift(a: dict, b: dict) -> float:
    scale = max([1.0] + [abs(_num(r[k])) for r in (a, b)
                         for k in ("lhs", "rhs")])
    return abs(_num(a["margin"]) - _num(b["margin"])) / scale


def _sigmas(a: dict, b: dict) -> float:
    # the margin shift in combined stderrs; 0 without stderrs
    combined = math.hypot(_num(a.get("stderr")), _num(b.get("stderr")))
    shift = abs(_num(a["margin"]) - _num(b["margin"]))
    return shift / combined if combined > 0.0 else 0.0


def _where(check: dict) -> tuple:
    worst = check.get("worst") or {}
    return tuple(json.dumps(worst.get(k)) for k in WHERE)


def compare(before: Path, after: Path, records: bool = False) -> tuple:
    """(lines to print, whether anything but the margins changed); with
    records, the lines list every record whose margin or stderr moved."""
    runs_a, runs_b = _runs(before), _runs(after)
    shifts, flips, exits, moved, other, rows = [], [], [], [], [], []
    other += [f"run only in {label}: {name}"
              for label, mine, theirs in (("BEFORE", runs_a, runs_b),
                                          ("AFTER", runs_b, runs_a))
              for name in sorted(mine.keys() - theirs.keys())]
    for name in sorted(runs_a.keys() & runs_b.keys()):
        a, b = runs_a[name], runs_b[name]
        code_a, code_b = ((p / "exit").read_text().strip() for p in (a, b))
        if code_a != code_b:
            exits.append(f"{name}: exit {code_a} -> {code_b}")
        (rec_a, chk_a), (rec_b, chk_b) = _read(a), _read(b)
        for key in sorted(rec_a.keys() ^ rec_b.keys()):
            other.append(f"record in one tree only: {name}/{key[0]} "
                         f"row {key[1]}")
        worst, sigmas = (0.0, None), 0.0
        for key in sorted(rec_a.keys() & rec_b.keys()):
            ra, rb = rec_a[key], rec_b[key]
            if any(ra[k] != rb[k] for k in WHERE):
                other.append(f"record moved: {name}/{key[0]} row {key[1]}")
            z = _sigmas(ra, rb)
            if any(ra.get(k) != rb.get(k) for k in ("margin", "stderr")):
                rows.append(f"{name}/{key[0]} row {key[1]} "
                            f"({', '.join(f'{k}={rb[k]}' for k in WHERE)}): "
                            f"margin {ra['margin']} -> {rb['margin']}, "
                            f"stderr {ra.get('stderr')} -> {rb.get('stderr')}"
                            + (f", {z:.3g} combined stderrs" if z else ""))
            sigmas = max(sigmas, z)
            s = _shift(ra, rb)
            if not s <= worst[0]:  # NaN counts as a shift
                worst = (s, key)
        if worst[1] is not None:
            shifts.append((worst[0], name, worst[1], rec_b[worst[1]], sigmas))
        for check in sorted(chk_a.keys() & chk_b.keys()):
            ca, cb = chk_a[check], chk_b[check]
            if ca["pass"] != cb["pass"]:
                flips.append(f"{name}/{check}: pass {ca['pass']} -> "
                             f"{cb['pass']}")
            if _where(ca) != _where(cb):
                moved.append(f"{name}/{check}: worst at {_where(ca)} -> "
                             f"{_where(cb)}")
        other += [f"check in one tree only: {name}/{check}"
                  for check in sorted(chk_a.keys() ^ chk_b.keys())]

    lines = []
    if shifts:
        top = max(shifts, key=lambda item: item[0])
        s, name, (file, row), rec, _ = top
        lines.append(f"largest margin shift (scaled): {s:.3g} in "
                     f"{name}/{file} row {row} "
                     f"({', '.join(f'{k}={rec[k]}' for k in WHERE)})")
        lines += [f"  {s:.3g}  {name}"
                  + (f"  ({z:.3g} combined stderrs)" if z else "")
                  for s, name, *_, z in sorted(shifts, key=lambda i: -i[0])]
    else:
        lines.append("largest margin shift (scaled): 0")
    sections = [("pass/fail flips", flips), ("exit-status changes", exits),
                ("moved worst records", moved), ("other differences", other)]
    for title, items in sections + [("moved records", rows)] * records:
        lines.append(f"{title}: {len(items) or 'none'}")
        lines += [f"  {item}" for item in items]
    return lines, bool(flips or exits or moved or other)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--records", action="store_true",
                   help="list every record whose margin or stderr moved")
    args = p.parse_args(argv)
    lines, changed = compare(args.before, args.after, args.records)
    print("\n".join(lines))
    return int(changed)


if __name__ == "__main__":
    sys.exit(main())
