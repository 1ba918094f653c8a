"""In-memory spans around calls into the engine's layers.

A traced run rebinds each layer's public functions, in every engine
module that holds a reference to them, to a wrapper that records a
span: name, start, end and the index of the enclosing span. Spans are
kept only inside a timed operation (whose own span is the root, named
`op`), written as JSON lines when the run ends, and reduced to per-layer
self time and counts per timed operation. The engine itself is not
changed; the wrappers are removed between traced rounds so untraced
rounds in the same run give the overhead baseline.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "anticopypaster"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _is_recommendation(result) -> int:
    return int(type(result).__name__ == "Recommendation")


# (module, function, counters); each counter maps (args, kwargs, result) to an amount.
SPANS = (
    ("lexer", "tokenize", {"lexer.chars": lambda a, k, r: len(_arg(a, k, 0, "text"))}),
    ("source_model", "index_file", {"source_model.methods_indexed": lambda a, k, r: len(r[0])}),
    ("source_model", "validate_fragment", {}),
    (
        "clones",
        "find_duplicates",
        {
            "clones.methods_scanned": lambda a, k, r: len(_arg(a, k, 1, "methods")),
            "clones.matches": lambda a, k, r: len(r),
        },
    ),
    ("metrics", "build_distributions", {"metrics.methods_sampled": lambda a, k, r: len(_arg(a, k, 0, "methods"))}),
    ("metrics", "compute_vector", {}),
    ("metrics", "thresholds_for", {}),
    ("decision", "enqueue_paste", {}),
    ("decision", "evaluate_paste", {"decision.recommendations": lambda a, k, r: _is_recommendation(r)}),
    ("decision", "evaluate_gate", {}),
    ("workspace", "open_project", {}),
    ("workspace", "refresh_index", {}),
    ("extraction", "analyze_extractability", {}),
    ("extraction", "plan_extraction", {}),
    ("extraction", "apply_extraction", {"extraction.sites_rewritten": lambda a, k, r: len(r.call_sites)}),
    ("cli", "run_command", {}),
)

# Called once per method compared; a span each would cost more than the call.
COUNTED_ONLY = (("clones", "overlap_similarity"),)

SPAN_NAMES = tuple(f"{module}.{func}" for module, func, _ in SPANS)
COUNTER_NAMES = tuple(name for _, _, counters in SPANS for name in counters) + tuple(
    f"{module}.{func}.calls" for module, func in COUNTED_ONLY
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.recording = False
        self.op_starts: list[int] = []  # index of each timed operation's root span
        self.missing: set[str] = set()  # span or counter that could not be taken
        self._patches: list[tuple[object, str, object]] = []

    # -- timed operations -------------------------------------------------

    def begin_op(self) -> None:
        self.op_starts.append(len(self.spans))
        self.stack.append(len(self.spans))
        self.spans.append(["op", perf_counter_ns(), 0, None])
        self.recording = True

    def end_op(self) -> None:
        self.recording = False
        self.spans[self.stack.pop()][2] = perf_counter_ns()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, counters: dict):
        spans = self.spans
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            record = [name, perf_counter_ns(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter_ns()
            for counter, amount in counters.items():
                try:
                    tracer.counts[counter] += amount(args, kwargs, result)
                except (IndexError, KeyError, TypeError, AttributeError):
                    tracer.missing.add(counter)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every reference the engine's modules hold to a traced function."""
        wrappers = {}
        for module, func, counters in SPANS:
            original = self._lookup(module, func)
            if original is not None:
                wrappers[id(original)] = (original, self._span_wrapper(f"{module}.{func}", original, counters))
        for module, func in COUNTED_ONLY:
            original = self._lookup(module, func)
            if original is not None:
                wrappers[id(original)] = (original, self._count_wrapper(f"{module}.{func}.calls", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _lookup(self, module: str, func: str):
        try:
            return getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{func}")
            return None

    # -- results --------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent}) + "\n")

    def per_layer(self, scales: list[float]) -> dict[str, tuple[float, str]]:
        """Self time and calls per span name, and every counter, per timed operation.

        `scales` holds one host-speed factor per timed operation, applied
        to the self time of the spans inside it.
        """
        self_ns: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        bounds = self.op_starts + [len(self.spans)]
        for op, scale in enumerate(scales):
            for name, start, end, parent in self.spans[bounds[op] : bounds[op + 1]]:
                self_ns[name] += (end - start) * scale
                calls[name] += 1
                if parent is not None:
                    self_ns[self.spans[parent][0]] -= (end - start) * scale
        ops = max(len(self.op_starts), 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / ops, "ms/op")
            out[f"{name}.calls"] = (calls.get(name, 0) / ops, "count/op")
        for name in COUNTER_NAMES:
            out[name] = (self.counts.get(name, 0) / ops, "count/op")
        return out
