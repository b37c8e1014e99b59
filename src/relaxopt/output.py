"""The one CSV writer behind every output file: UTF-8, written whole or not at all."""
from __future__ import annotations

import os


def _cell(x) -> str:
    """None as empty, an int or str as itself, any other number as repr(float(x)).

    Through float, a numpy scalar prints as a Python float, not as `np.float64(...)`.
    """
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return repr(float(x))


def write_csv(path: str, columns, rows, comments=()) -> None:
    """Write a `# ` line per comment (None or empty ones skipped), the column line, one line per row.

    `rows` is consumed once, so a generator streams.  The text goes to
    `{path}.{pid}.tmp`, which replaces `path` after the last row; any
    exception, including one the rows raise, removes it and propagates, so
    a failed write leaves `path` as it was.  Undecodable bytes that reached
    Python as surrogate escapes (a path or argument) are written back as
    those bytes.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8", errors="surrogateescape")
    try:
        with fh:
            for comment in comments:
                if comment:
                    fh.write(f"# {comment}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(map(_cell, row)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
