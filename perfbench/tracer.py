"""Outside-in tracer: wraps every public function of every ``casimir``
module from the benchmark's side, without touching the program.

``install`` replaces each public function by a wrapper in *every*
module that binds it, so ``from .engine import adaptive_quad`` copies in
other modules are traced too; ``uninstall`` puts the original objects
back.  Each call records a span (name, start, end, parent span, point
id) in flat arrays; counts come from the results the program already
returns (``NumericResult.evaluations``, ``converged``) and, for
``find_root``, from a counting wrapper around the function passed in.

A call *repeats* when its arguments equal those of an earlier call of the
same function in the same traced run; closures are compared by code and
captured values, so a fresh lambda over the same numbers counts as a
repeat.  Only argument hashes are kept.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("engine", "specfun", "matsubara", "green_em", "dispersion", "circuit",
           "hyperdim", "cli")

# engine entry points whose results carry counts
_NUMERIC = {"engine.adaptive_quad", "engine.sum_series"}
_ROOT = "engine.find_root"


def public_functions(module) -> dict:
    """Public functions defined in ``module`` (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def _freeze(x, depth: int = 2):
    """A hashable stand-in for an argument, equal for equal inputs."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_freeze(i, depth) for i in x)
    if isinstance(x, dict):
        return ("dict", id(x))  # mutable state: equal only to itself
    code = getattr(x, "__code__", None)
    if code is not None:
        if depth == 0:
            return ("fn", code)
        cells = []
        for cell in x.__closure__ or ():
            try:
                cells.append(_freeze(cell.cell_contents, depth - 1))
            except ValueError:  # empty cell
                cells.append(None)
        return ("fn", code, _freeze(x.__defaults__, depth - 1), tuple(cells))
    try:
        hash(x)
    except TypeError:
        return ("obj", id(x))
    return x


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.point_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.point = -1
        self._stack = [-1]
        self._seen: set[int] = set()
        self.calls = defaultdict(int)
        self.repeats = defaultdict(int)
        self.counts = defaultdict(int)  # "<span>.<counter>" -> total
        self._patches: list[tuple] = []

    # ---- patching ------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"casimir.{short}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "casimir" or modname.startswith("casimir.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ---- recording -----------------------------------------------------
    def _name(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, span: str, fn):
        nid = self._name(span)
        numeric = span in _NUMERIC
        root = span == _ROOT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = hash((nid, _freeze(args), _freeze(tuple(sorted(kwargs.items())))))
            tracer.calls[span] += 1
            if key in tracer._seen:
                tracer.repeats[span] += 1
            else:
                tracer._seen.add(key)
            if root:
                args = (tracer._counting(span, args[0]),) + args[1:]
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[span + ".errors"] += 1
                raise
            finally:
                tracer._close(idx)
            if numeric:
                tracer.counts[span + ".evals"] += result.evaluations
                tracer.counts[span + ".unconverged"] += not result.converged
            return result

        return wrapper

    def _counting(self, span: str, f):
        counts = self.counts
        name = span + ".fevals"

        def counted(x):
            counts[name] += 1
            return f(x)

        return counted

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.point_id.append(self.point)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    # ---- results -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child
        spans."""
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(float)
        names, name_id = self.names, self.name_id
        for i in range(len(start)):
            out[names[name_id[i]]] += end[i] - start[i] - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header naming the span ids, then one
        [name_id, parent, point, start, end] list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.start)}) + "\n")
            for row in zip(self.name_id, self.parent, self.point_id, self.start, self.end):
                fh.write(json.dumps(row) + "\n")
