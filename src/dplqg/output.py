"""Text output: the one float format and the writers built on it.

Every float is written as its repr, the shortest text that reads back to
the same double, so identical results give identical bytes.
"""

import numpy as np


def fmt(value):
    """A float's repr; "none", "true"/"false" or ", "-joined for None, a bool, a tuple."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(fmt, value))
    return repr(float(value))


def cells(block):
    """The repr of each float of a 2-D array, one list of strings per row,
    made as the rows are consumed."""
    return (list(map(repr, row)) for row in block.tolist())


def write_rows(fh, rows):
    """Write rows of cell strings, each joined by commas and ended by CRLF.

    These are the bytes csv.writer writes in its default (excel) dialect,
    which quotes only a cell holding a comma, a quote or a line break, or a
    row that is one empty cell. No cell here needs that: the cells are
    float reprs, step and agent numbers, names and empty padding, and a row
    with one cell holds a float.
    """
    fh.writelines(",".join(row) + "\r\n" for row in rows)


def write_matrix(M, path):
    """Write a matrix (a vector as one row) as CSV, one repr per entry."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, cells(np.atleast_2d(np.asarray(M, dtype=float))))


def write_kv(lines, path):
    """Write key = value lines, each ended by a newline."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
