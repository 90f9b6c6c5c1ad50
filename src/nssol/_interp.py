"""Piecewise quartic evaluation on a sorted node table, and the convention
of every evaluator: arrays in, arrays out, a float for a scalar."""

import numpy as np

from .errors import OutOfRangeError, refuse

#: the refusal of a time outside a trajectory's range [lo, hi]
OUT_OF_RANGE = "t {x!r} outside tabulated range [{lo!r}, {hi!r}]"

#: points evaluated or formatted at once by a grid's writer and its
#: evaluation: few enough that a block and its temporaries stay in cache
#: and are reused, not paged in anew
BLOCK = 8192


def unbox(x):
    """x as a float when it is 0-d, else unchanged."""
    return x if type(x) is np.ndarray and x.ndim else float(x)


def horner(c, s):
    """The quartic c[0] + c[1]*s + ... + c[4]*s**4, in Horner form."""
    return c[0] + s * (c[1] + s * (c[2] + s * (c[3] + s * c[4])))


def hermite(edges, nodes, coef, x):
    """Piecewise polynomial c0 + c1*s + c2*s**2 + c3*s**3 + c4*s**4,
    s = x - nodes[j], of a stack of k curves at the points x, a scalar or
    any array: a list of k floats, numpy scalars or arrays of x's shape.

    The n tabulated nodes sit between a NaN column at each end: nodes has
    shape (n + 2,) and coef (k, 5, n + 2), per curve the node values c0,
    then c1..c4, one column per node: the interval that starts there, or
    for the last node a constant, so every node evaluates to its value
    exactly.  edges, shape (n + 1,), bound the n intervals, the lowest at
    the first node less an edge tolerance and the highest just past the
    last node plus it.  One searchsorted locates x: a point out of range,
    or NaN, lands on a NaN column and is refused with OutOfRangeError,
    which names x as the time t of a trajectory, the one table read here.
    A float x (np.float64 included) in range reads only its column, as
    Python floats, and gives floats with a batch element's bits; every
    other x, and every refusal, takes the array code, where a scalar
    stays a numpy scalar, off numpy's 0-d array path.  The name is kept
    from the cubic Hermite tables this once evaluated: the benchmark's
    tracer and its test wrap it under that name.
    """
    j = edges.searchsorted(x, side="right")
    if isinstance(x, float) and 0 < j < nodes.size - 1:
        s = float(x) - float(nodes[j])
        return [horner(c, s) for c in coef[..., j].tolist()]
    s = x - nodes[j]
    y = [horner(c, s) for c in coef[..., j]]
    refuse(OutOfRangeError, y[0] != y[0], OUT_OF_RANGE, x=x, lo=nodes[1], hi=nodes[-2])
    return y
