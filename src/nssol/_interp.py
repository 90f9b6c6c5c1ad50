"""Piecewise quartic evaluation on a sorted node table, and the convention
of every evaluator: arrays in, arrays out, a float for a scalar."""

import numpy as np

from .errors import OutOfRangeError, refuse


def unbox(x):
    """x as a float when it is 0-d, else unchanged."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def hermite(edges, nodes, values, table, x, what="value"):
    """Piecewise polynomial values[:, j] + c1*s + c2*s**2 + c3*s**3 + c4*s**4,
    s = x - nodes[j], of a stack of k curves at the points x (any shape).

    The n tabulated nodes sit between a NaN column at each end: nodes
    has shape (n + 2,), values (k, n + 2) and table, their coefficients
    (c1, c2, c3, c4), (4, k, n + 2), one column per node: the interval
    that starts there, or for the last node a constant, so every node
    evaluates to its value exactly.  edges, shape (n + 1,), are the
    interval bounds of the n nodes, the lowest at the first node less an
    edge tolerance and the highest just past the last node plus it.  One
    searchsorted over edges locates x for all curves, giving shape
    (k,) + x.shape: a point out of range, or NaN, lands on a NaN column,
    so one isnan of the first curve refuses it with OutOfRangeError.
    The name is kept from the cubic Hermite tables this once evaluated:
    the benchmark's tracer and its test wrap it under that name.
    """
    x = np.asarray(x, dtype=float)
    j = edges.searchsorted(x, side="right")
    s = x - nodes[j]
    c1, c2, c3, c4 = table[..., j]
    y = values[..., j] + s * (c1 + s * (c2 + s * (c3 + s * c4)))
    refuse(OutOfRangeError, np.isnan(y[0]),
           what + " {x!r} outside tabulated range [{lo!r}, {hi!r}]",
           x=x, lo=nodes[1], hi=nodes[-2])
    return y
