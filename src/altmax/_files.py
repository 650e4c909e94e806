"""The text formats of every result file, each written one line at a time.

Key-value files hold `key = repr(value)` lines; bounds_report.csv holds the
same entries as `key,repr(value)` rows.  Tables hold a header of names, then
one line of comma-joined `repr` cells per row.
"""

from __future__ import annotations

from itertools import chain


def _write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def write_kv(path, items):
    """One `key = repr(value)` line per (key, value) pair of `items`."""
    _write_lines(path, (f"{key} = {value!r}" for key, value in items))


def write_kv_csv(path, items):
    """The (key, value) pairs of `items` as `key,repr(value)` rows under `key,value`."""
    _write_lines(path, chain(["key,value"], (f"{key},{value!r}" for key, value in items)))


def write_csv(path, header, rows):
    """The names of `header`, then the `repr` of each cell of each row of `rows`."""
    _write_lines(path, chain([",".join(header)], (",".join(map(repr, row)) for row in rows)))
