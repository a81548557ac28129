#!/usr/bin/env python3
"""Compare two golden directories written by `scripts/golden.py`, number by number.

    python scripts/golden_diff.py OUTDIR_A OUTDIR_B

Each file is split into numeric tokens and the text between them.  For
every file that differs, prints its path and the largest relative
difference |a - b| / max(|a|, |b|) between corresponding numbers, or
"text differs" when the text between the numbers (or the number of
numbers, or the file's presence) differs.  Exits 1 if any text differs
or any relative difference exceeds 1e-12, else 0.
"""

import re
import sys
from pathlib import Path

TOLERANCE = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(text: str) -> tuple[list[str], list[float]]:
    """The text between numeric tokens, and the tokens' values."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def _rel_diff(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(a: str, b: str) -> float | None:
    """Largest relative difference between the numbers of a and b, or None
    when their non-numeric text differs."""
    text_a, nums_a = _split(a)
    text_b, nums_b = _split(b)
    if text_a != text_b or len(nums_a) != len(nums_b):
        return None
    return max((_rel_diff(x, y) for x, y in zip(nums_a, nums_b)), default=0.0)


def main(dir_a: str, dir_b: str) -> int:
    root_a, root_b = Path(dir_a), Path(dir_b)
    names = sorted(
        {p.relative_to(root).as_posix()
         for root in (root_a, root_b) for p in root.rglob("*") if p.is_file()}
    )
    failed = False
    for name in names:
        path_a, path_b = root_a / name, root_b / name
        if not (path_a.is_file() and path_b.is_file()):
            print(f"{name}: only in {dir_a if path_a.is_file() else dir_b}")
            failed = True
            continue
        a, b = path_a.read_text(), path_b.read_text()
        if a == b:
            continue
        worst = compare(a, b)
        if worst is None:
            print(f"{name}: text differs")
            failed = True
        else:
            print(f"{name}: max relative difference {worst:.3e}")
            failed = failed or worst > TOLERANCE
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
