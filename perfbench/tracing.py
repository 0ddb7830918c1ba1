"""Outside-in span tracing of the ylab modules.

``Tracer.install()`` replaces every public function of the ylab modules, and
a few methods and private helpers, with a wrapper that records a span: name,
start, end, parent span and the id of the CLI command it belongs to (one id
per root span, i.e. per ``cli.main`` call).  ``from .x import f`` copies the
binding into the importing module, so every module attribute that refers to
a wrapped function is rebound as well (``flow.damped_newton``,
``cli.write_field_csv``, ``diagnostics.compute_R`` ...).  ``uninstall()``
puts every original back, so traced and untraced passes can alternate in one
process.

Spans stay in memory; ``layer_metrics`` turns one pass worth of spans into
per-layer counts and times, and ``write_spans`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("grids", "backgrounds", "operators", "elliptic", "flow", "diagnostics", "cli", "svgplot")

# (module, class, method) and (module, private function) traced besides the
# public functions: the stencil apply, the report's checkpoint reader and the
# per-attempt implicit solve (its count gives attempts and halvings).
METHODS = (("operators", "BoundaryLaplacian", "apply"), ("cli", "RunContext", "checkpoints"))
PRIVATE = (("flow", "_attempt_step"),)

# Bindings copied by ``from .x import f`` that must see the wrappers (checked
# where the module still has them).
REBOUND = (
    ("flow", "damped_newton"),
    ("flow", "compute_R"),
    ("flow", "boundary_laplacian"),
    ("elliptic", "solve_tridiagonal"),
    ("elliptic", "damped_newton"),
    ("cli", "write_field_csv"),
    ("cli", "read_field_csv"),
    ("cli", "yamabe_sign"),
    ("cli", "run_flow"),
    ("diagnostics", "compute_R"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "attrs")

    def __init__(self, name, parent, command):
        self.name = name
        self.parent = parent
        self.command = command
        self.start = self.end = 0.0
        self.attrs = None

    def put(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


class Tracer:
    """Span recorder plus the patch set that routes ylab calls through it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._commands = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call of fn.

        before(span, args, kwargs) may return replacement (args, kwargs);
        after(span, args, kwargs, result) attaches attributes to the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                span = Span(name, stack[-1], spans[stack[-1]].command)
            else:
                self._commands += 1
                span = Span(name, -1, self._commands)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.put("error", 1)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = self.spans[:]
        self.spans.clear()
        return spans

    # -- hooks that attach counts and bytes to spans -------------------------

    def _hooks(self):
        def newton_before(span, args, kwargs):
            args = list(args)
            for index, name, label in ((1, "residual_fn", "residual"), (2, "jacobian_fn", "jacobian")):
                fn = _arg(args, kwargs, index, name)
                wrapped = self.wrap(f"operators.newton.{label}", fn)
                if len(args) > index:
                    args[index] = wrapped
                else:
                    kwargs[name] = wrapped
            return tuple(args), kwargs

        def newton_after(span, args, kwargs, result):
            span.put("iterations", result[2])
            span.put("unconverged", 0 if result[3] else 1)

        def tridiagonal_before(span, args, kwargs):
            diag = _arg(args, kwargs, 1, "diag")
            span.put("bytes_computed", 4 * diag.size * diag.itemsize)  # 3 bands + rhs
            return args, kwargs

        def read_before(span, args, kwargs):
            span.put("bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
            return args, kwargs

        def write_field_after(span, args, kwargs, result):
            span.put("bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

        def write_monitor_after(span, args, kwargs, result):
            span.put("bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

        def simulate_after(span, args, kwargs, result):
            manifest = _arg(args, kwargs, 0, "manifest")
            out_root = _arg(args, kwargs, 1, "out_root")
            span.put("artifact_bytes", _tree_bytes(Path(out_root) / manifest.run_id))

        return {
            "operators.damped_newton": (newton_before, newton_after),
            "operators.solve_tridiagonal": (tridiagonal_before, None),
            "grids.read_field_csv": (read_before, None),
            "grids.write_field_csv": (None, write_field_after),
            "cli.read_monitor_csv": (read_before, None),
            "cli.write_monitor_csv": (None, write_monitor_after),
            "cli.cmd_simulate": (None, simulate_after),
        }

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = {name: importlib.import_module(f"ylab.{name}") for name in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, module in modules.items():
            targets = [
                (attr, fn) for attr, fn in vars(module).items()
                if inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not attr.startswith("_")
            ]
            targets += [(attr, getattr(module, attr)) for mod, attr in PRIVATE if mod == short]
            for attr, fn in targets:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = self.wrap(name, fn, *hooks.get(name, (None, None)))
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.{method}"
            self._patch(cls, method, self.wrap(name, vars(cls)[method]))
        # rebind every module-level reference, including copies made by
        # ``from .x import f`` and the package's own re-exports
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ylab" or mod_name.startswith("ylab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)
        installed = {id(wrapper) for wrapper in wrappers.values()}
        for short, attr in REBOUND:
            value = vars(modules[short]).get(attr)
            if value is not None and id(value) not in installed:
                raise RuntimeError(f"ylab.{short}.{attr} was not rebound to its traced wrapper")

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_totals(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed attributes."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        entry = totals[span.name]
        duration = span.end - span.start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_s[index]
        if span.attrs:
            for key, value in span.attrs.items():
                entry[key] += value
    return totals


def layer_metrics(spans) -> dict:
    """Flat per-layer metrics of one pass, named ``<module>.<function>.<field>``.

    Besides the raw span fields this derives the Newton work ratio and the
    step controller's attempts and halvings.
    """
    totals = layer_totals(spans)

    def get(name, key):
        return totals[name][key] if name in totals else 0.0

    metrics = {}
    for name, entry in totals.items():
        for key, value in entry.items():
            metrics[f"{name}.{key}"] = value
    residual_evals = get("operators.newton.residual", "calls")
    iterations = get("operators.damped_newton", "iterations")
    attempts = get("flow._attempt_step", "calls")
    steps_taken = get("flow.step", "calls") - get("flow.step", "error")
    derived = {
        "operators.newton.residual_evals": residual_evals,
        "operators.newton.residual_s": get("operators.newton.residual", "s"),
        "operators.newton.jacobian_evals": get("operators.newton.jacobian", "calls"),
        "operators.newton.jacobian_s": get("operators.newton.jacobian", "s"),
        "operators.newton.useful_ratio": iterations / residual_evals if residual_evals else 0.0,
        "flow.attempts": attempts,
        "flow.halvings": attempts - steps_taken,
        "cli.artifact_bytes": get("cli.cmd_simulate", "artifact_bytes"),
    }
    metrics.update(derived)
    return metrics


def write_spans(spans, path) -> None:
    """One JSON object per span: id, name, start, end, parent, command, attrs."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        for index, span in enumerate(spans):
            record = {
                "id": index, "name": span.name, "parent": span.parent,
                "command": span.command, "start": span.start - origin,
                "end": span.end - origin,
            }
            if span.attrs:
                record["attrs"] = span.attrs
            fh.write(json.dumps(record) + "\n")
