"""Cubic Hermite interpolation on a sorted node mesh, and the convention
of every evaluator: arrays in, arrays out, a float for a scalar."""

import numpy as np

from .errors import OutOfRangeError, refuse


def unbox(x):
    """x as a float when it is 0-d, else unchanged."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def hermite_table(nodes, values, slopes):
    """Coefficients (c1, c2, c3) of the cubic Hermite interpolant
    values[i] + c1*s + c2*s**2 + c3*s**3, s = x - nodes[i], on each
    interval i, shape (3,) + values.shape: the last column is the line
    through the last node, so every node evaluates to its value exactly."""
    h = np.diff(nodes)
    d0, d1 = slopes[..., :-1], slopes[..., 1:]
    secant = np.diff(values) / h
    table = np.zeros((3,) + values.shape)
    table[0] = slopes
    table[1, ..., :-1] = (3.0 * secant - 2.0 * d0 - d1) / h
    table[2, ..., :-1] = (d0 + d1 - 2.0 * secant) / (h * h)
    return table


def hermite(nodes, values, table, x, what="value"):
    """Piecewise cubic Hermite interpolant at the points x (any shape).

    values hold one curve (n,) or a stack of curves (k, n), and table
    their hermite_table; one searchsorted locates x for all, giving shape
    values.shape[:-1] + x.shape.  The error is O(h^4) in the node spacing
    h.  x outside the nodes (up to an edge tolerance), or NaN, raises
    OutOfRangeError.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = nodes[0], nodes[-1]
    pad = 1e-12 * max(1.0, abs(hi))
    refuse(OutOfRangeError, ~((x >= lo - pad) & (x <= hi + pad)),
           f"{what} {{x!r}} outside tabulated range [{float(lo)!r}, {float(hi)!r}]",
           x=x)
    i = nodes[1:].searchsorted(x, side="right")
    s = x - nodes[i]
    c1, c2, c3 = table[..., i]
    return values[..., i] + s * (c1 + s * (c2 + s * c3))
