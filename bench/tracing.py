"""Spans around nssol's layers, installed from outside the program.

The tracer replaces public functions and methods of nssol with timing
wrappers for the traced pass of a run, and puts the originals back
afterwards; untraced passes run the program untouched.  A function is
replaced under every name it is bound to in nssol's modules, including
names imported from another module (``hermite`` in ``scaling`` and
``profiles``) and values of module-level dicts (the CLI's command
table).

Per-point layers are called tens of thousands of times per operation,
so their spans are summed in place (calls, time, time in child spans);
every other span is kept in memory with its parent and operation, and
written out when the run ends.  A span's self time is its duration
minus the durations of its direct child spans.
"""

import json
import sys
import time

#: layers timed per call, in the order of the README's table
LAYERS = (
    "model.validate", "solutions.build", "scaling.integrate",
    "profiles.powerlaw", "fields.point", "scaling.pair", "profiles.evaluate",
    "interp.hermite", "fields.eval_grid", "residuals.verify_window",
    "cli.config", "cli.cmd_field",
)

#: layers summed in place instead of kept span by span
PER_POINT = {"fields.point", "scaling.pair", "profiles.evaluate",
             "interp.hermite"}


def _targets():
    """(layer, owner, attribute) for every function the tracer wraps."""
    import nssol
    from nssol import _interp, cli, fields, model, profiles, residuals
    from nssol import scaling, solutions

    def subclasses(cls):
        out = [cls]
        for sub in cls.__subclasses__():
            out += subclasses(sub)
        return out

    targets = [
        ("model.validate", model, "validate"),
        ("solutions.build", solutions, "build_solution"),
        ("scaling.integrate", scaling, "integrate_isothermal"),
        ("scaling.integrate", scaling, "integrate_polytropic"),
        ("scaling.integrate", scaling, "integrate_pressureless"),
        ("profiles.powerlaw", profiles, "powerlaw_profile"),
        ("fields.point", nssol.SolutionField, "__call__"),
        ("interp.hermite", _interp, "hermite"),
        ("fields.eval_grid", fields, "eval_grid"),
        ("residuals.verify_window", residuals, "verify_window"),
        ("cli.config", cli.RunConfig, "from_file"),
        ("cli.cmd_field", cli, "cmd_field"),
    ]
    targets += [("scaling.pair", cls, "pair")
                for cls in subclasses(nssol.ScalingFn) if "pair" in vars(cls)]
    targets += [("profiles.evaluate", cls, "evaluate")
                for cls in subclasses(nssol.Profile) if "evaluate" in vars(cls)]
    return targets


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.stack = [[0, None]]    # [child ns, span id] of each open span
        self.spans = []             # (id, layer, op, start, end, child ns, parent id)
        self.totals = {layer: [0, 0, 0] for layer in LAYERS}  # calls, ns, child ns
        self.op = None              # the operation running; None records nothing
        self._next_id = 0
        self._undo = []

    def _wrap(self, layer, fn):
        stack, totals, spans = self.stack, self.totals[layer], self.spans
        keep = layer not in PER_POINT
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:   # the benchmark's own checks
                return fn(*args, **kwargs)
            parent = stack[-1][1]
            span_id = parent
            if keep:
                tracer._next_id += 1
                span_id = tracer._next_id
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stack[-1][0] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += frame[0]
                if keep:
                    spans.append((span_id, layer, tracer.op, start, end,
                                  frame[0], parent))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every target under every name it has in nssol."""
        replaced = {}
        for layer, owner, attr in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, raw.__func__))
            else:
                new = self._wrap(layer, raw)
                replaced[id(raw)] = new
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
        for name, module in list(sys.modules.items()):
            if name != "nssol" and not name.startswith("nssol."):
                continue
            for attr, value in list(vars(module).items()):
                if replaced.get(id(value)) is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if replaced.get(id(item)) is not None:
                            self._undo.append((value, key, item))
                            value[key] = replaced[id(item)]

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo = []

    def write(self, path):
        """Write the kept spans and the per-layer sums as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, layer, op, start, end, child, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "layer": layer, "op": op,
                                     "start_ns": start, "end_ns": end,
                                     "child_ns": child, "parent": parent}) + "\n")
            for layer, (calls, total, child) in self.totals.items():
                fh.write(json.dumps({"layer": layer, "calls": calls,
                                     "total_ns": total, "child_ns": child}) + "\n")
