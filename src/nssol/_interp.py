"""Cubic Hermite interpolation on a sorted node mesh, and the convention
of every evaluator: arrays in, arrays out, a float for a scalar."""

import numpy as np

from .errors import OutOfRangeError, refuse


def unbox(x):
    """x as a float when it is 0-d, else unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def hermite(nodes, values, slopes, x, what="value"):
    """Piecewise cubic Hermite interpolant at the points x (any shape).

    values and slopes hold one curve (n,) or a stack of curves (k, n);
    one searchsorted locates x for all, giving shape values.shape[:-1] +
    x.shape.  The error is O(h^4) in the node spacing h.  x outside the
    nodes (up to an edge tolerance) raises OutOfRangeError.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = nodes[0], nodes[-1]
    pad = 1e-12 * max(1.0, abs(hi))
    refuse(OutOfRangeError, (x < lo - pad) | (x > hi + pad),
           f"{what} {{x!r}} outside tabulated range [{float(lo)!r}, {float(hi)!r}]",
           x=x)
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    h = nodes[i + 1] - nodes[i]
    t = (x - nodes[i]) / h
    y0, y1 = values[..., i], values[..., i + 1]
    d0, d1 = slopes[..., i], slopes[..., i + 1]
    t2 = t * t
    t3 = t2 * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
