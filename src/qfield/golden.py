"""Golden files of CLI runs: the file an invocation is keyed to, writing or
checking it, and the first cell where a run differs from it.

Only a ``--golden`` call loads this module, so no other call compiles it.
"""
from __future__ import annotations

import os
import sys
from itertools import zip_longest

from .cli import fmt

DEFAULT_GOLDEN_DIR = "golden"


def _cells(text: str, fmt_kind: str) -> list:
    """The rows of a rendered table, header first, as lists of cells."""
    if fmt_kind == "json":
        import json
        try:
            objs = json.loads(text)
            return [list(objs[0])] + [[str(v) for v in o.values()]
                                      for o in objs]
        except (ValueError, LookupError, TypeError, AttributeError):
            return []
    return [line.split(",") for line in text.splitlines()]


def first_difference(golden: str, text: str, fmt_kind: str) -> str:
    """Where this run's table first differs from the golden one: the row
    (the header is row 0), the column, both cells and, when both parse as
    numbers, the delta; "" when the two agree cell by cell."""
    new = _cells(text, fmt_kind)
    header = new[0] if new else []
    rows = zip_longest(_cells(golden, fmt_kind), new, fillvalue=())
    for r, (old_row, new_row) in enumerate(rows):
        for c, (was, got) in enumerate(zip_longest(old_row, new_row)):
            if was != got:
                column = header[c] if c < len(header) else f"#{c + 1}"
                where = (f" at row {r}, column {column}: golden {was!r}, "
                         f"got {got!r}")
                try:
                    return f"{where}, delta {fmt(float(got) - float(was))}"
                except (TypeError, ValueError):
                    return where
    return ""


def golden_path(argv, command: str) -> str:
    """Golden file of an invocation: <root>/<command>/<digest>.csv."""
    import hashlib
    root = os.environ.get("QFIELD_GOLDEN_DIR", DEFAULT_GOLDEN_DIR)
    # key on the invocation minus the --golden flag itself, so `write` and
    # `check` runs of the same command resolve to the same file
    keyed = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--golden":
            skip = True
            continue
        if a.startswith("--golden="):
            continue
        keyed.append(a)
    digest = hashlib.sha256(" ".join(keyed).encode()).hexdigest()[:16]
    return os.path.join(root, command, f"{digest}.csv")


def write_or_check(text: str, argv, args) -> int:
    """Write the run's golden file, or check the run against it: 0, or 1
    with one error line on stderr.  OSError propagates."""
    path = golden_path(argv, args.command)
    if args.golden == "write":
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
        return 0
    if not os.path.exists(path):
        print(f"error: no golden file at {path}", file=sys.stderr)
        return 1
    with open(path) as fh:
        golden = fh.read()
    if golden != text:
        print(f"error: output differs from golden {path}"
              + first_difference(golden, text, args.format),
              file=sys.stderr)
        return 1
    return 0
