"""Outside-in tracing of the wmub layers.

The tracer wraps public functions of the package from outside: every
``wmub.*`` module namespace that binds a traced function gets the wrapper,
because ``cli`` and ``bases`` import names such as ``maximal_line_catalog``
directly and patching only the defining module would miss those calls.
Methods are wrapped once, on their class.  Nothing under ``src/`` changes.

Spans are kept in memory as (name, call id, parent id, request id, start,
end) and written out when the benchmark ends.  A traced name that the
package no longer defines is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced public function, by layer.
TRACED = (
    ("zring", "crt_context"),
    ("geometry", "maximal_line_catalog"),
    ("geometry", "line"),
    ("geometry", "pair_census"),
    ("geometry", "classify_line_pair"),
    ("geometry", "partition_lines"),
    ("hilbert", "prime_mub"),
    ("hilbert", "assemble_tensor_basis"),
    ("hilbert", "unitarity_defect"),
    ("hilbert", "conjugation_defect"),
    ("bases", "build_wmub"),
    ("bases", "wmub_census"),
    ("bases", "duality_report"),
    ("bases", "classify_pair"),
    ("bases", "overlap_table"),
    ("bases", "partition_bases"),
    ("cli", "main"),
    ("cli", "run_verification"),
    ("cli", "Document.render"),
)


def _points(args, result) -> int:
    return result.size


def _overlap_flops(args, result) -> int:
    # One complex d x d x d product: 4 real multiplies and 4 real adds per term.
    return 8 * args[0].ctx.d ** 3


# Work counters taken at span boundaries: span name -> (counter, unit, function).
COUNTERS = {
    "geometry.line": ("geometry.line.points", "count", _points),
    "bases.overlap_table": ("bases.overlap_table.flops_computed", "flop", _overlap_flops),
}


class Tracer:
    """Records a span for every call of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(call_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((name, call_id, parent, self.request, start, end))
            if counter is not None:
                self.counts[counter[0]] += counter[2](args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wmub" or n.startswith("wmub.")]
        self.absent = []
        for module_name, qualname in TRACED:
            name = f"{module_name}.{qualname}"
            try:
                owner = importlib.import_module(f"wmub.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: call count, inclusive seconds and self seconds."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for name, call_id, _, _, start, end in self.spans:
            row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered[call_id]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,call_id,parent_id,request_id,start_s,end_s\n")
            for name, call_id, parent, request, start, end in self.spans:
                out.write(f"{name},{call_id},{parent},{request},{start!r},{end!r}\n")
