"""Every scalar type takes the one evaluation path and gives a batch's bits.

A Python float, a Python int, a np.float64 and a 0-d array go through
the array code of pair, evaluate and SolutionField: each must come back
as a float with the bits of the matching element of a batch call, and a
NaN or out-of-range scalar of each type must raise the NssolError
subclass the batch raises.  A Python scalar reaching a range test
unconverted is the trap this guards: ~(x > 0.0) is ~True == -2 on a
Python float, which is truthy.
"""

import math

import numpy as np
import pytest

from nssol import NssolError, build_solution
from tests import cases

#: scalar type -> conversion of a float value to it
SCALARS = {
    "float": float,
    "int": int,
    "np.float64": np.float64,
    "0-d array": np.array,
}


def _cases():
    """(name, solution, window) of the five canonical families, each
    built a little past its window, and one vanished trajectory."""
    out = []
    for name, params, family, window in cases.exact_families():
        out.append((name, build_solution(params, family, t_end=window.t_max + 0.01),
                    window))
    params, family, window = cases.isothermal_stated()
    solution = build_solution(params, family, t_end=window.t_max)
    assert solution.scaling.status == "vanished"
    out.append(("isothermal_vanished", solution, window))
    return out


CASES = _cases()


def _calls(solution, window):
    """(label, function of scalar or array arguments, argument tuples in
    range, argument tuples to refuse), each argument a float."""
    scaling, profile, field = solution.scaling, solution.profile, solution.field()
    t_hi = min(window.t_max, scaling.t_end)
    ts = [0.0, window.t_min, 0.5 * (window.t_min + t_hi), t_hi]
    zs = [0.0, 0.25, 1.0, 1.9, 2.0]
    rs = [1.0, window.r_min, 0.7, 2.0]
    bad_z = [math.nan, math.inf, -math.inf]
    if profile.z_max < math.inf:
        bad_z.append(math.floor(profile.z_max) + 1.0)
    return [
        ("pair", scaling.pair, [(t,) for t in ts], [(math.nan,), (5.0,)]),
        ("evaluate", profile.evaluate, [(z,) for z in zs], [(z,) for z in bad_z]),
        # not at t_hi: a vanished trajectory's end puts r/a past the shape
        ("field", field, list(zip(ts, rs))[:-1],
         [(math.nan, 1.0), (5.0, 1.0), (window.t_min, math.nan)]),
    ]


def _bits(values):
    return [float(v).hex() for v in values]


def _representable(convert, args):
    """args converted, or None where the type cannot hold them exactly."""
    if convert is int and not all(math.isfinite(x) and x == int(x) for x in args):
        return None
    return tuple(convert(x) for x in args)


@pytest.mark.parametrize("scalar", list(SCALARS))
@pytest.mark.parametrize("name, solution, window", CASES, ids=[c[0] for c in CASES])
def test_scalar_types_match_batch_bits(name, solution, window, scalar):
    convert = SCALARS[scalar]
    for label, fn, points, _ in _calls(solution, window):
        batch = fn(*(np.array(column, dtype=float) for column in zip(*points)))
        checked = 0
        for k, args in enumerate(points):
            args = _representable(convert, args)
            if args is None:
                continue
            values = fn(*args)
            assert all(type(v) is float for v in values), (label, args)
            assert _bits(values) == _bits(column[k] for column in batch), (label, args)
            checked += 1
        assert checked >= 1, (label, scalar)


@pytest.mark.parametrize("scalar", list(SCALARS))
@pytest.mark.parametrize("name, solution, window", CASES, ids=[c[0] for c in CASES])
def test_scalar_types_refuse_like_a_batch(name, solution, window, scalar):
    convert = SCALARS[scalar]
    for label, fn, _, bad in _calls(solution, window):
        for args in bad:
            with pytest.raises(NssolError) as batch:
                fn(*(np.array([x]) for x in args))
            converted = _representable(convert, args)
            if converted is None:
                continue
            with pytest.raises(NssolError) as single:
                fn(*converted)
            assert type(single.value) is type(batch.value), (label, args)
