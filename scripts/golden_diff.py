#!/usr/bin/env python3
"""Golden diff: compare two ``golden_outputs.py`` trees field by field.

Prints one line for every field that differs: the file, its line, the
field (the CSV column or the ``key = value`` key) and, for a number, the
relative change |new - old| / |old|.  A line's text outside its numbers
must match exactly, and so must every ``exit_code`` and the ``settings``
file; a difference there, a file in one tree only, or a number that
moves by more than ``REL_TOL`` makes it exit 1:

    PYTHONPATH=src python scripts/golden_outputs.py before
    ...change the code...
    PYTHONPATH=src python scripts/golden_outputs.py after
    python scripts/golden_diff.py before after
"""

import argparse
import re
import sys
from pathlib import Path

#: Largest relative move of a number that counts as roundoff.
REL_TOL = 1e-9

#: Files compared as whole text: a numeric-looking change there is not roundoff.
EXACT_FILES = ("exit_code", "settings")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def relative_change(old, new):
    """|new - old| / |old|; inf where old is 0, or where either is nan or
    inf, and the two differ."""
    if old == new:
        return 0.0
    rel = abs(new - old) / abs(old) if old else float("inf")
    return float("inf") if rel != rel else rel


def numeric_moves(old, new):
    """The (old, new, rel) of each number that moved, or None when the text
    outside the numbers differs."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    pairs = zip(NUMBER.findall(old), NUMBER.findall(new))
    return [(a, b, relative_change(float(a), float(b))) for a, b in pairs if a != b]


def fields(line, header):
    """(name, text) of each field of one output line."""
    key, sep, value = line.partition(" = ")
    if sep:
        return [(key.lstrip("# "), value)]
    cols = line.split(",")
    names = header if header and len(header) == len(cols) else range(len(cols))
    return [(str(name), text) for name, text in zip(names, cols)]


def compare_file(name, old_text, new_text):
    """Report lines and the count of failing differences of one file."""
    if old_text == new_text:
        return [], 0
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if Path(name).name in EXACT_FILES or len(old_lines) != len(new_lines):
        return [f"{name}: differs, not compared by number"], 1
    report, bad, header = [], 0, None
    for number, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        cols = old.split(",")
        if len(cols) > 1 and all(IDENTIFIER.fullmatch(c) for c in cols):
            header = cols
        if old == new:
            continue
        old_fields, new_fields = fields(old, header), fields(new, header)
        if [f for f, _ in old_fields] != [f for f, _ in new_fields]:
            report.append(f"{name}:{number}: text differs: {old!r} -> {new!r}")
            bad += 1
            continue
        for (field, a), (_, b) in zip(old_fields, new_fields):
            if a == b:
                continue
            moves = numeric_moves(a, b)
            if moves is None:
                report.append(f"{name}:{number} {field}: text differs: {a!r} -> {b!r}")
                bad += 1
                continue
            for x, y, rel in moves:
                over = rel > REL_TOL
                bad += over
                flag = f"  > {REL_TOL:g}" if over else ""
                report.append(f"{name}:{number} {field}: {x} -> {y} (rel {rel:.2e}){flag}")
    return report, bad


def files_of(root):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before", type=Path, help="tree written by golden_outputs.py at the parent")
    p.add_argument("after", type=Path, help="tree written by golden_outputs.py at the change")
    return p.parse_args()


def main():
    args = parse_args()
    before, after = files_of(args.before), files_of(args.after)
    bad = 0
    for name in sorted(before ^ after):
        print(f"{name}: only in {args.before if name in before else args.after}")
        bad += 1
    for name in sorted(before & after):
        old = (args.before / name).read_text(encoding="utf-8")
        new = (args.after / name).read_text(encoding="utf-8")
        report, failed = compare_file(name, old, new)
        bad += failed
        for line in report:
            print(line)
    print(f"[golden_diff] {bad} difference(s) beyond a numeric move of {REL_TOL:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
