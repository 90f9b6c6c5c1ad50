"""Piecewise quartic evaluation on a sorted node table, and the convention
of every evaluator: arrays in, arrays out, a float for a scalar."""

import struct
from bisect import bisect_right

import numpy as np

from .errors import OutOfRangeError, refuse

#: the refusal of a time outside a trajectory's range [lo, hi]
OUT_OF_RANGE = "t {x!r} outside tabulated range [{lo!r}, {hi!r}]"

#: points evaluated or formatted at once by a grid's writer and its
#: evaluation: few enough that a block and its temporaries stay in cache
#: and are reused, not paged in anew
BLOCK = 8192

#: a row of a Table: a node, then the quartic of each of its two curves
_ROW = struct.Struct("11d")


def unbox(x):
    """x as a float when it is 0-d, else unchanged."""
    return x if type(x) is np.ndarray and x.ndim else float(x)


def horner(c, s):
    """The quartic c[0] + c[1]*s + ... + c[4]*s**4, in Horner form."""
    return c[0] + s * (c[1] + s * (c[2] + s * (c[3] + s * c[4])))


class Table:
    """Two curves tabulated on n sorted nodes, one quartic each per
    interval, in the one read-only array hermite reads: Table(nodes,
    coef, lo, hi) of the nodes, shape (n,), and coef, shape (2, 5, n),
    per curve and node the value and the coefficients of s**1..4,
    s = x - node, of the interval that starts there, or for the last
    node a constant, so every node evaluates to its value exactly.

    rows, shape (n + 2, 11), hold a node and its two columns of coef per
    row, between a NaN row at each end; nodes, shape (n + 2,), and coef,
    (2, 5, n + 2), are views of it.  edges, shape (n + 1,), bound the n
    intervals: lo, the nodes past the first, and hi.  Nothing is kept
    per node beyond these arrays: a float lookup bisects the edges
    through one memoryview and reads its row in one struct read.
    """

    __slots__ = ("rows", "nodes", "coef", "edges", "_edges")

    def __init__(self, nodes, coef, lo, hi):
        rows = np.empty((len(nodes) + 2, 11))
        rows[0] = rows[-1] = np.nan
        rows[1:-1, 0] = nodes
        rows[1:-1, 1:] = np.reshape(coef, (10, -1)).T
        edges = np.empty(len(nodes) + 1)
        edges[0], edges[1:-1], edges[-1] = lo, nodes[1:], hi
        for array in (rows, edges):
            array.flags.writeable = False
        self.rows, self.nodes, self.coef = rows, rows[:, 0], rows[:, 1:].T.reshape(2, 5, -1)
        self.edges, self._edges = edges, memoryview(edges)


def hermite(table, x):
    """The two curves of a Table at the points x, a scalar or any array:
    two floats, numpy scalars or arrays of x's shape.

    One search of the edges locates x: a point out of range, or NaN,
    lands on a NaN row and is refused with OutOfRangeError, which names
    x as the time t of a trajectory, the one table read here.  A float x
    (np.float64 included) in range is located by bisect and evaluated
    on its row's Python floats, with a batch element's bits; every other
    x, and every refusal, takes the array code, searchsorted and the
    coef view, where a scalar stays a numpy scalar, off numpy's 0-d
    array path.  The name is kept from the cubic Hermite tables this
    once evaluated: the benchmark's tracer and its test wrap it under
    that name.
    """
    if isinstance(x, float):  # np.float64 too
        x = float(x)
        j = bisect_right(table._edges, x)
        if 0 < j < len(table._edges):
            node, a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 = _ROW.unpack_from(
                table.rows, j * _ROW.size)
            s = x - node
            # horner's, inline: two calls on slices cost as much again
            return (a0 + s * (a1 + s * (a2 + s * (a3 + s * a4))),
                    b0 + s * (b1 + s * (b2 + s * (b3 + s * b4))))
    j = table.edges.searchsorted(x, side="right")
    s = x - table.nodes[j]
    y = [horner(c, s) for c in table.coef[..., j]]
    refuse(OutOfRangeError, y[0] != y[0], OUT_OF_RANGE, x=x, lo=table.nodes[1],
           hi=table.nodes[-2])
    return y
