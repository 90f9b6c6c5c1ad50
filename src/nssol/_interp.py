"""Piecewise quartic evaluation on a sorted node table, and the convention
of every evaluator: arrays in, arrays out, a float for a scalar."""

import numpy as np

from .errors import OutOfRangeError, refuse


def unbox(x):
    """x as a float when it is 0-d, else unchanged."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def hermite(nodes, values, table, x, what="value"):
    """Piecewise polynomial values[i] + c1*s + c2*s**2 + c3*s**3 + c4*s**4,
    s = x - nodes[i], at the points x (any shape).

    values hold one curve (n,) or a stack of curves (k, n), and table
    their coefficients (c1, c2, c3, c4), shape (4,) + values.shape, one
    column per node: the interval that starts there, or for the last
    node a constant, so every node evaluates to its value exactly.  One
    searchsorted locates x for all curves, giving shape
    values.shape[:-1] + x.shape.  x outside the nodes (up to an edge
    tolerance), or NaN, raises OutOfRangeError.  The name is kept from
    the cubic Hermite tables this once evaluated: the benchmark's tracer
    and its test wrap it under that name.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = nodes[0], nodes[-1]
    pad = 1e-12 * max(1.0, abs(hi))
    refuse(OutOfRangeError, ~((x >= lo - pad) & (x <= hi + pad)),
           what + " {x!r} outside tabulated range [{lo!r}, {hi!r}]", x=x, lo=lo, hi=hi)
    i = nodes[1:].searchsorted(x, side="right")
    s = x - nodes[i]
    c1, c2, c3, c4 = table[..., i]
    return values[..., i] + s * (c1 + s * (c2 + s * (c3 + s * c4)))
