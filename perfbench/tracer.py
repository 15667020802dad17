"""Spans and counts at the public boundary of each klrdim module.

The tracer replaces every public function of the layer modules with a
wrapper, in every ``klrdim`` namespace that binds it (the modules use
``from ... import``, so one function can be bound in several places), and
patches ``LaurentPoly.__mul__`` and ``__add__`` on the class.  A wrapper
counts the call, keyed by the function and by the namespace it was called
through, and records a span: name, start, end, parent span and the index
of the benchmark call it belongs to.  A wrapped generator records one span
per ``next()`` and counts the items it yields.

Spans live in flat arrays while the pass runs and are written out by
:meth:`Tracer.write_spans` afterwards.  The library source is untouched;
:meth:`Tracer.uninstall` puts every original back.

A wrapper's own work falls partly inside its span (after the start
timestamp and before the end one) and partly outside it, in the caller's
span.  :meth:`Tracer.calibrate` measures both parts on wrapped no-ops of
each wrapper kind, and :meth:`Tracer.self_times` and
:meth:`Tracer.inclusive_time` subtract them per span, so that the times
they report are the program's and not the tracer's.  The machine's speed
drifts by 10-20% within seconds, so :meth:`Tracer.next_op` calibrates
again every CALIBRATE_EVERY_S during the pass, between operations.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("qpoly", "perms", "dims", "levelred", "idempotents", "basis", "verify", "cli", "budget")

# Functions whose result is a dimension: their nonzero share is recorded.
DIMENSION_FUNCTIONS = ("dims.graded_dim", "dims.dim", "dims.graded_dim_recursive")

BUDGET_CHECK = "budget.check"

CALIBRATE_EVERY_S = 0.2

# Wrapper kinds; each has its own cost per span.
PLAIN, DIMENSION, CHECK, GENERATOR = range(4)
KIND_NAMES = ("plain", "dimension", "check", "generator")


def _is_zero(value) -> bool:
    is_zero = getattr(value, "is_zero", None)
    return is_zero() if is_zero is not None else value == 0


class Tracer:
    """Counts and spans of one pass: :meth:`install`, run the pass,
    :meth:`uninstall`, then read :attr:`calls`, :attr:`yielded`,
    :attr:`nonzero`, :attr:`checks` and the span arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.op = -1
        self.calls: Counter = Counter()  # (function, namespace) -> calls
        self.yielded: Counter = Counter()  # generator function -> items
        self.nonzero: Counter = Counter()  # dimension function -> nonzero results
        self.checks: Counter = Counter()  # budget label -> checks
        self._kinds: list[int] = []  # name id -> wrapper kind
        # Wrapper cost per span and kind, in seconds: inside the span, and
        # outside it in the caller's span.  Zero until calibrate() runs.
        self.inner_cost = [0.0] * len(KIND_NAMES)
        self.outer_cost = [0.0] * len(KIND_NAMES)
        self._cost_rounds: list[tuple[list[float], list[float]]] = []
        self._next_calibration = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str, kind: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._kinds.append(kind)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, via: str):
        if inspect.isgeneratorfunction(fn):
            kind = GENERATOR
        elif name in DIMENSION_FUNCTIONS:
            kind = DIMENSION
        elif name == BUDGET_CHECK:
            kind = CHECK
        else:
            kind = PLAIN
        nid = self._name_id(name, kind)
        key = (name, via)
        calls, open_, close = self.calls, self._open, self._close

        if kind == GENERATOR:
            yielded = self.yielded

            def traced_gen(*args, **kwargs):
                calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yielded[name] += 1
                    yield item

            return traced_gen

        if kind == DIMENSION:
            nonzero = self.nonzero

            def traced_dim(*args, **kwargs):
                calls[key] += 1
                idx = open_(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(idx)
                if not _is_zero(out):
                    nonzero[name] += 1
                return out

            return traced_dim

        if kind == CHECK:
            checks = self.checks

            def traced_check(*args, **kwargs):
                calls[key] += 1
                checks[args[1] if len(args) > 1 else kwargs.get("where", "enumeration")] += 1
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

            return traced_check

        def traced(*args, **kwargs):
            calls[key] += 1
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of every layer where it is bound."""
        layer_funcs = {}
        for layer in LAYERS:
            module = sys.modules[f"klrdim.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    layer_funcs[id(obj)] = (obj, f"{layer}.{attr}")
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "klrdim" or n.startswith("klrdim.")]
        for module in namespaces:
            via = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                hit = layer_funcs.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, self._wrap(obj, hit[1], via))
        poly = sys.modules["klrdim.qpoly"].LaurentPoly
        for dunder, name in (("__mul__", "qpoly.mul"), ("__add__", "qpoly.add")):
            self._set(poly, dunder, self._wrap(getattr(poly, dunder), name, "qpoly"))

    def next_op(self, index: int) -> float:
        """Mark the start of benchmark operation ``index``, first running a
        calibration round if CALIBRATE_EVERY_S have passed since the last.
        Returns the seconds spent calibrating."""
        self.op = index
        now = perf_counter()
        if now < self._next_calibration:
            return 0.0
        self.calibrate()
        done = perf_counter()
        self._next_calibration = done + CALIBRATE_EVERY_S
        return done - now

    def calibrate(self, calls: int = 1000, rounds: int = 1) -> None:
        """Measure each wrapper kind's own cost per span.

        For each kind, times ``calls`` calls of a no-op and of the same
        no-op wrapped by a scratch tracer.  The wrapper's cost inside the
        span is the mean span duration less the no-op's own time; the rest
        of the difference between the two loops falls outside the span.
        Keeps the median over these ``rounds`` and those of earlier calls.
        """
        for _ in range(rounds):
            inner, outer = [0.0] * len(KIND_NAMES), [0.0] * len(KIND_NAMES)
            for kind, (name, make, loop, baseline) in enumerate(_CALIBRATION):
                scratch = Tracer()
                raw = make()
                wrapped = scratch._wrap(raw, name, "calibration")
                t0 = perf_counter()
                loop(baseline, calls)
                t1 = perf_counter()
                loop(raw, calls)
                t2 = perf_counter()
                loop(wrapped, calls)
                t3 = perf_counter()
                spans = len(scratch.span_start)
                span_s = sum(e - s for s, e in zip(scratch.span_start, scratch.span_end)) / spans
                own = ((t2 - t1) - (t1 - t0)) / calls
                wrapper = ((t3 - t2) - (t2 - t1)) / calls
                inner[kind] = span_s - own
                outer[kind] = wrapper - (span_s - own)
            self._cost_rounds.append((inner, outer))
        for side, costs in enumerate((self.inner_cost, self.outer_cost)):
            for kind in range(len(KIND_NAMES)):
                costs[kind] = max(0.0, statistics.median(r[side][kind] for r in self._cost_rounds))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def count(self, name: str, via: str | None = None) -> int:
        """Calls of ``name`` (through namespace ``via``, or any)."""
        return sum(n for (f, v), n in self.calls.items() if f == name and (via is None or v == via))

    def layer_calls(self, layer: str, via: str | None = None) -> int:
        prefix = layer + "."
        return sum(
            n for (f, v), n in self.calls.items()
            if f.startswith(prefix) and (via is None or v == via)
        )

    def _span_self(self) -> array:
        """Each span's self time: its duration, less the part its direct
        children cover, less the wrapper cost inside it and the wrapper
        cost of each child outside the child's span.

        Spans nest strictly (one thread, stack discipline), so the part of
        a span its children cover is the sum of their durations.
        """
        start, end, parent, names = self.span_start, self.span_end, self.span_parent, self.span_name
        inner = [self.inner_cost[k] for k in self._kinds]
        outer = [self.outer_cost[k] for k in self._kinds]
        own = array("d", (e - s - inner[n] for s, e, n in zip(start, end, names)))
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i] + outer[names[i]]
        return own

    def self_times(self) -> dict[str, float]:
        """Self time per span name, without the tracer's own cost."""
        by_id = [0.0] * len(self.names)
        for nid, own in zip(self.span_name, self._span_self()):
            by_id[nid] += own
        return {name: max(0.0, t) for name, t in zip(self.names, by_id)}

    def inclusive_time(self, name: str) -> float:
        """Summed time of the spans of ``name`` not nested in another span
        of the same name, each with its own and its descendants' self time
        (so without the tracer's own cost)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        parent, names = self.span_parent, self.span_name
        # A child's index is above its parent's, so one backward sweep
        # sums every subtree.
        subtree = self._span_self()
        for i in range(len(subtree) - 1, -1, -1):
            if parent[i] >= 0:
                subtree[parent[i]] += subtree[i]
        total = 0.0
        for i in range(len(subtree)):
            if names[i] != nid:
                continue
            p = parent[i]
            while p >= 0 and names[p] != nid:
                p = parent[p]
            if p < 0:
                total += subtree[i]
        return max(0.0, total)

    def write_spans(self, path) -> None:
        """Write the spans, gzip-compressed: one JSON header line naming the
        fields, the span names and the count, then each field's array as
        raw native-order bytes.  :func:`read_spans` reads it back."""
        fields = {f: getattr(self, f"span_{f}") for f in SPAN_FIELDS}
        header = {
            "fields": {f: a.typecode for f, a in fields.items()},
            "names": self.names,
            "count": len(self.span_start),
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in fields.values():
                fh.write(a.tobytes())


SPAN_FIELDS = ("name", "parent", "op", "start", "end")


def _empty(*args):
    return None


class _Zero:
    """Stands in for a dimension result: a cheap ``is_zero`` method."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return True


def _call(fn, calls):
    # Two arguments, as in the most frequent spans (LaurentPoly products
    # and sums).
    for _ in range(calls):
        fn(None, None)


def _call_check(fn, calls):
    for _ in range(calls):
        fn(None, "calibration")


def _drain(gen_fn, calls):
    for _ in gen_fn(calls):
        pass


def _make_generator():
    def items(count):
        yield from range(count)

    return items


def _make_function(result):
    def fn(*args):
        return result

    return fn


# Per kind, in KIND_NAMES order: a span name of that kind, a maker of the
# no-op to wrap, a loop that makes ``calls`` calls (or draws as many
# items), and what that loop runs to time its own overhead.
_CALIBRATION = (
    ("calibration.plain", lambda: _make_function(None), _call, _empty),
    (DIMENSION_FUNCTIONS[0], lambda: _make_function(_Zero()), _call, _empty),
    (BUDGET_CHECK, lambda: _make_function(None), _call_check, _empty),
    ("calibration.generator", _make_generator, _drain, range),
)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """The span names and field arrays written by :meth:`Tracer.write_spans`."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {}
        for f in SPAN_FIELDS:
            a = array(header["fields"][f])
            a.frombytes(fh.read(a.itemsize * header["count"]))
            out[f] = a
    return header["names"], out
