"""Text output: the one float format and the one CSV row writer.

Every float is written as its repr, the shortest text that reads back to
the same double, so identical results give identical bytes, and every CSV
row is written through a row template (write_rows): a file's templates
are its format.
"""

import numpy as np

STEP = -1  # the template cell that a block row's step number fills


def fmt(value):
    """A float's repr; "none", "true"/"false" or ", "-joined for None, a bool, a tuple."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(fmt, value))
    return repr(float(value))


def write_rows(fh, template, block=((),), k0=0):
    """Write a row template to fh, filled once per row of the float block.

    The template is a list of CSV rows, each a list of cells: a str is a
    literal cell (holding no "%s"), an int the block column whose float's
    repr fills it, and STEP the step k0 + j of block row j; the default
    block writes a header once. Cells are joined by commas and rows ended
    by CRLF, csv.writer's bytes: no cell holds a comma, a quote or a line
    break and no row is one empty cell.
    """
    block = np.asarray(block, dtype=float)
    (n, w), j = block.shape, np.arange(len(block))[:, None]
    # matrix rows need no reordering; the general path wrote them ~10% slower
    if [[*row] for row in template] == [[*range(w)]]:
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())
        return
    text = "".join(",".join("%s" if isinstance(c, int) else c for c in row) + "\r\n"
                   for row in template)
    order = np.array([c for row in template for c in row if isinstance(c, int)], dtype=int)
    # the repr of each float, row by row, then each row's step number
    cells = np.array([*map(repr, block.ravel().tolist()), *map(str, range(k0, k0 + n))],
                     dtype=object)
    out = np.empty((n, 2 * len(order) + 1), dtype=object)  # text, cell, text, ..., text
    out[:, ::2] = text.split("%s")
    out[:, 1::2] = cells[np.where(order == STEP, n * w + j, j * w + order)]
    fh.write("".join(out.ravel().tolist()))


def write_matrix(M, path):
    """Write a matrix (a vector as one row) as CSV, one repr per entry."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="") as fh:
        write_rows(fh, [range(M.shape[1])], M)


def write_kv(lines, path):
    """Write key = value lines, each ended by a newline."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
