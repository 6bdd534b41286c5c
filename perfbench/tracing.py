"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of pretzellinks from outside the package.
A function is replaced at every module binding that points to it (modules
that import a name keep their own reference, and module-internal calls look
up the module global), so internal calls are seen as well as the
benchmark's own.  Spans are kept in memory as (id, name, start, end, parent)
and written out when the run ends; self time is a span's duration minus the
time its child spans cover.  Targets marked "count" are counted without a
span, because they are called too often for a span to be cheap.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import Counter
from time import perf_counter_ns

import inputs

# (metric name, module, attribute path, kind).
TARGETS = (
    ("sequences.EnhancedSequence.parse", "sequences", "EnhancedSequence.parse", "span"),
    ("sequences.is_realizable", "sequences", "is_realizable", "count"),
    ("sequences.dihedral_canonical", "sequences", "dihedral_canonical", "span"),
    ("sequences.canonical_key", "sequences", "canonical_key", "span"),
    ("sequences.enumerate_enhancements", "sequences", "enumerate_enhancements", "span"),
    ("zpoly.ZPoly.mul", "zpoly", "ZPoly.__mul__", "count"),
    ("zpoly.LaurentZ.mul", "zpoly", "LaurentZ.__mul__", "count"),
    ("zpoly.LaurentZ.exact_div", "zpoly", "LaurentZ.exact_div", "count"),
    ("zpoly.LaurentZ.substitute_z", "zpoly", "LaurentZ.substitute_z", "span"),
    ("diagrams.orientation_data", "diagrams", "orientation_data", "span"),
    ("diagrams.build_diagram", "diagrams", "build_diagram", "span"),
    ("diagrams.seifert_matrix", "diagrams", "seifert_matrix", "span"),
    ("diagrams.conway_from_seifert", "diagrams", "conway_from_seifert", "span"),
    ("diagrams.oracle_conway", "diagrams", "oracle_conway", "span"),
    ("polynomials.statesum_conway", "polynomials", "statesum_conway", "span"),
    ("polynomials.twistreduce_conway", "polynomials", "twistreduce_conway", "span"),
    ("polynomials.base_conway", "polynomials", "base_conway", "span"),
    ("classify.enumerate_classes", "classify", "enumerate_classes", "span"),
    ("classify.class_key", "classify", "class_key", "span"),
    ("classify.invariants", "classify", "invariants", "span"),
    ("classify.delta_equivalent", "classify", "delta_equivalent", "span"),
    ("classify.self_delta_equivalent", "classify", "self_delta_equivalent", "span"),
    ("cli.main", "cli", "main", "span"),
)

PACKAGE = "pretzellinks"
DIHEDRAL = "sequences.dihedral_canonical"
DIHEDRAL_PARENTS = ("polynomials.base_conway", "polynomials.twistreduce_conway",
                    "sequences.canonical_key")


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.next_id = 0
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.parent_calls: Counter = Counter()
        self.parent_self_ns: Counter = Counter()
        self.states_visited = 0
        self.builds_in_queries = 0
        self.base_keys: set = set()
        self.reduce_keys: set = set()
        self.reduce_calls = 0
        self.reduce_distinct = 0
        self.matrix_sizes: list[int] = []
        self.mu2_reductions = 0
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self.next_id, name, 0, self.stack[-1][0] if self.stack else -1, 0]
        self.next_id += 1
        self.stack.append(frame)
        self.active[name] += 1
        self._on_enter(name)
        frame[4] = perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        sid, name, child_ns, parent, start = frame
        self.active[name] -= 1
        dur = end - start
        own = dur - child_ns
        self.calls[name] += 1
        self.self_ns[name] += own
        if self.stack:
            up = self.stack[-1]
            up[2] += dur
            if name == DIHEDRAL:
                self.parent_calls[up[1]] += 1
                self.parent_self_ns[up[1]] += own
        self.spans.append((sid, name, start, end, parent))

    def span(self, name: str):
        """Context manager for the benchmark's own spans (item, query, ...)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter(name)

            def __exit__(self, *exc):
                tracer._exit(self.frame)
                return False

        return _Span()

    def _on_enter(self, name: str) -> None:
        if name == "polynomials.base_conway":
            if self.active["polynomials.statesum_conway"]:
                self.states_visited += 1
        elif name == "diagrams.build_diagram":
            if self.active["query"]:
                self.builds_in_queries += 1

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        hook = self._hooks().get(name)

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        return {
            "polynomials.twistreduce_conway": self._hook_reduce,
            DIHEDRAL: self._hook_dihedral,
            "diagrams.seifert_matrix": self._hook_matrix,
        }

    def _hook_reduce(self, args, result):
        # One top-level call ends: fold its memo-key statistics.
        self.reduce_distinct += len(self.reduce_keys)
        self.reduce_keys = set()
        if self.active["classify.enumerate_classes"]:
            if inputs.components(tuple(e.k for e in args[0])) == 2:
                self.mu2_reductions += 1

    def _hook_dihedral(self, args, result):
        # Runs after the span ends, so the top of the stack is the caller.
        parent = self.stack[-1][1] if self.stack else None
        if parent == "polynomials.base_conway":
            self.base_keys.add(result)
        elif parent == "polynomials.twistreduce_conway":
            self.reduce_calls += 1
            self.reduce_keys.add(result)

    def _hook_matrix(self, args, result):
        self.matrix_sizes.append(result.size)

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside the package."""
        self.missing = []
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for name, mod_name, path, kind in TARGETS:
            mod = mods.get(f"{PACKAGE}.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(name, raw.__func__)))
                self._restore.append((owner, attr, raw))
                continue
            wrapped = make(name, raw)
            scopes = [owner] if isinstance(owner, type) else list(mods.values())
            for scope in scopes:
                for key, val in list(vars(scope).items()):
                    if val is raw:
                        setattr(scope, key, wrapped)
                        self._restore.append((scope, key, raw))

    def uninstall(self) -> None:
        for scope, key, raw in reversed(self._restore):
            setattr(scope, key, raw)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the targets for the duration of a with block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Unwrap the targets for the duration of a with block."""
        self.uninstall()
        try:
            yield self
        finally:
            self.install()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, queries: int, mu2_rows: int) -> dict[str, float]:
        """Every per-layer metric, by name."""
        m: dict[str, float] = {}
        for name, _, _, kind in TARGETS:
            m[f"{name}.calls"] = self.calls[name]
            if kind == "span":
                m[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for parent in DIHEDRAL_PARENTS:
            short = parent.split(".")[-1]
            m[f"{DIHEDRAL}.{short}.calls"] = self.parent_calls[parent]
            m[f"{DIHEDRAL}.{short}.self_s"] = self.parent_self_ns[parent] / 1e9
        m["polynomials.states_visited"] = self.states_visited
        # base_conway looks its memo up by the canonical key it computes
        # first, so the distinct keys are the misses of a memo that starts
        # empty when tracing starts.
        base_calls = self.parent_calls["polynomials.base_conway"]
        m["polynomials.base_memo_hit_ratio"] = (
            1 - len(self.base_keys) / base_calls if base_calls else 0.0)
        m["polynomials.twistreduce_memo_hit_ratio"] = (
            1 - self.reduce_distinct / self.reduce_calls if self.reduce_calls else 0.0)
        sizes = self.matrix_sizes
        m["diagrams.matrix_size.mean"] = sum(sizes) / len(sizes) if sizes else 0.0
        m["diagrams.matrix_size.max"] = max(sizes) if sizes else 0
        m["classify.twistreduce_per_row"] = self.mu2_reductions / mu2_rows if mu2_rows else 0.0
        m["classify.builds_per_query"] = self.builds_in_queries / queries if queries else 0.0
        m["trace.self_s_total"] = sum(self.self_ns.values()) / 1e9
        m["trace.spans"] = len(self.spans)
        return m

    def share(self, prefixes) -> float:
        """Share of all traced self time spent in layers with these prefixes."""
        total = sum(self.self_ns.values())
        part = sum(v for k, v in self.self_ns.items() if k.startswith(tuple(prefixes)))
        return part / total if total else 0.0

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header, then one span a line."""
        t0 = min((s[2] for s in self.spans), default=0)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent"],
                                 "counts": {k: v for k, v in self.calls.items()}}) + "\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f'[{sid},"{name}",{start - t0},{end - t0},{parent}]\n')
