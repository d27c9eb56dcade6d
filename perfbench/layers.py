"""Outside-in tracing of omegalab's layers, installed at run time.

Nothing under ``src/`` is edited: `Tracer.install` replaces the public
functions and methods named in `TARGETS` with thin wrappers that record a
span (name, start, end, parent) around each call.  A function imported by
name into several modules (``from .measures import cs_lower``) is replaced
in every loaded ``omegalab`` module that holds it, so calls through any of
those names are seen.  Targets that a later version of the package no
longer has are skipped, and their metrics read 0.

Spans are kept in flat arrays in memory and written out once, when the run
ends.  Self time is a span's duration minus the time its direct children
cover.
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import statistics
import sys
import time
from array import array

# (module, attribute path, span name).  The attribute path is "func" for a
# module-level function and "Class.method" for a method.
TARGETS = (
    ("omegalab._purecore", "scan_halts", "kernel.scan"),
    ("omegalab._fastcore", "scan_halts", "kernel.scan"),
    ("omegalab.machine", "Machine.run_pair", "machine.run_pair"),
    ("omegalab.enumerator", "enumerate_domain", "enumerator.enumerate"),
    ("omegalab.enumerator", "write_log", "enumerator.write_log"),
    ("omegalab.enumerator", "load_log", "enumerator.load_log"),
    ("omegalab.enumerator", "EnumerationResult.compressible_stream", "enumerator.stream"),
    ("omegalab.measures", "omega_lower", "measures.omega"),
    ("omegalab.measures", "cs_lower", "measures.cs"),
    ("omegalab.measures", "z_lower", "measures.z"),
    ("omegalab.measures", "cst_lower", "measures.cst"),
    ("omegalab.measures", "csbt_lower", "measures.csbt"),
    ("omegalab.census", "census_profile", "census.profile"),
    ("omegalab.extractor", "extract_incompressible", "extractor.extract"),
    ("omegalab.extractor", "verify_incompressible", "extractor.extract"),
    ("omegalab.fixedpoint", "derive_constants", "fixedpoint.constants"),
    ("omegalab.fixedpoint", "check_upper_gap", "fixedpoint.upper_sweep"),
    ("omegalab.fixedpoint", "check_lower_gap", "fixedpoint.lower_sweep"),
    ("omegalab.fixedpoint", "check_floor_identities", "fixedpoint.floor"),
    ("omegalab.fixedpoint", "default_context", "fixedpoint.context"),
    ("omegalab.fixedpoint", "reconstruction_roundtrip", "fixedpoint.roundtrip"),
    ("omegalab.cli", "main", "cli.main"),
)

# Stages after which the RSS high-water mark is read; each operation of a
# workload belongs to one of them.
STAGES = ("setup", "enumerate", "write_log", "measure", "census", "extract", "fixedpoint")

# Every per-layer metric, with its unit, in the order it is reported.
LAYER_METRICS = (
    ("kernel.scan_s", "s"),
    ("kernel.programs", "count"),
    ("kernel.halt_yield", "ratio"),
    ("machine.run_pair_calls", "count"),
    ("machine.run_pair_s", "s"),
    ("machine.route_yield", "ratio"),
    ("enumerator.enumerate_s", "s"),
    ("enumerator.self_s", "s"),
    ("enumerator.events", "count"),
    ("enumerator.output_chars", "count"),
    ("enumerator.write_log_s", "s"),
    ("enumerator.log_bytes", "bytes"),
    ("enumerator.load_log_s", "s"),
    ("enumerator.load_log_calls", "count"),
    ("enumerator.stream_calls", "count"),
    ("enumerator.stream_s", "s"),
    ("measures.omega_s", "s"),
    ("measures.cs_s", "s"),
    ("measures.z_s", "s"),
    ("measures.cst_s", "s"),
    ("measures.csbt_s", "s"),
    ("measures.terms", "count"),
    ("dyadic.pow2_calls", "count"),
    ("dyadic.pow2_hit_ratio", "ratio"),
    ("census.profile_s", "s"),
    ("extractor.extract_s", "s"),
    ("fixedpoint.constants_s", "s"),
    ("fixedpoint.upper_sweep_s", "s"),
    ("fixedpoint.lower_sweep_s", "s"),
    ("fixedpoint.context_s", "s"),
    ("fixedpoint.roundtrip_s", "s"),
    ("fixedpoint.checks", "count"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
    *((f"rss.{stage}_mb", "MB") for stage in STAGES),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._terms_memo: dict[tuple[int, object], int] = {}
        self._memo_keep: list[object] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span, for the benchmark's own operations."""
        return _Span(self, name)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def count_pow2_cache(self) -> None:
        """Add the hits and misses of `pow2_enclosure`'s cache since it was last cleared."""
        from omegalab import dyadic

        info = getattr(dyadic.pow2_enclosure, "cache_info", None)
        if info is not None:
            stats = info()
            self.count("dyadic.pow2_hits", stats.hits)
            self.count("dyadic.pow2_misses", stats.misses)

    def new_pass(self) -> None:
        """Drop the per-result memo, so results of earlier passes can be freed."""
        self._terms_memo.clear()
        self._memo_keep.clear()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for module_name, path, span_name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path, None) if owner_path else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, span_name)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "omegalab" or mod_name.startswith("omegalab."):
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        after = self._after.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters taken where the work happens -------------------------

    def _after_scan(self, args, kwargs, result):
        _, lo, hi = args[:3]
        self.count("kernel.programs", hi - lo)
        self.count("kernel.halts", len(result[0]))

    def _after_run_pair(self, args, kwargs, result):
        if result.halted:
            self.count("machine.route_halts")

    def _after_enumerate(self, args, kwargs, result):
        self.count("enumerator.events", len(result.events))
        self.count("enumerator.output_chars", sum(len(ev.output) for ev in result.events))

    def _after_write_log(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.count("enumerator.log_bytes", os.path.getsize(path))

    def _after_events_sum(self, args, kwargs, result):
        self.count("measures.terms", len(args[0].events))

    def _after_cs_sum(self, args, kwargs, result):
        # cs and cst sum over the stream at threshold 1
        self.count("measures.terms", self._stream_size(args[0], 1))

    def _after_csbt_sum(self, args, kwargs, result):
        threshold = args[1] if len(args) > 1 else kwargs["T"]
        self.count("measures.terms", self._stream_size(args[0], threshold))

    def _stream_size(self, enum, threshold) -> int:
        """Stream length, from the unwrapped method, once per result and threshold."""
        key = (id(enum), threshold)
        if key not in self._terms_memo:
            method = type(enum).compressible_stream
            method = getattr(method, "__wrapped__", method)
            self._terms_memo[key] = len(method(enum, threshold).members)
            self._memo_keep.append(enum)
        return self._terms_memo[key]

    _after = {
        "kernel.scan": _after_scan,
        "machine.run_pair": _after_run_pair,
        "enumerator.enumerate": _after_enumerate,
        "enumerator.write_log": _after_write_log,
        "measures.omega": _after_events_sum,
        "measures.z": _after_events_sum,
        "measures.cs": _after_cs_sum,
        "measures.cst": _after_cs_sum,
        "measures.csbt": _after_csbt_sum,
    }

    # -- reduction -----------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """The span count and a copy of the counters, to split a run in phases."""
        return len(self.start), dict(self.counts)

    def totals(self, lo: int = 0, hi: int | None = None):
        """(inclusive time, self time, calls) per span name over spans lo..hi.

        Inclusive time counts only the outermost span of each name on a
        call path, so a re-entrant call is not counted twice.
        """
        hi = len(self.start) if hi is None else hi
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child_time[p - lo] += self.end[i] - self.start[i]
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            own[name] = own.get(name, 0.0) + dur - child_time[i - lo]
            calls[name] = calls.get(name, 0) + 1
            if not self._has_ancestor_named(i, self.name_id[i]):
                inclusive[name] = inclusive.get(name, 0.0) + dur
        return inclusive, own, calls

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        """Write every span (name, start, end, parent index) as gzipped JSON."""
        doc = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def layer_metrics(
    tracer: Tracer, setup_mark, passes: int, walls, traced_walls, rss: dict[str, float]
) -> dict[str, float]:
    """Per-layer values for one set-up plus one traced pass (the mean of `passes`).

    `setup_mark` is `tracer.mark()` taken when the traced set-up ended;
    `walls` and `traced_walls` are the untraced and traced pass times, and
    `rss` the high-water mark after each stage of an untraced pass, so that
    the spans kept in memory do not count.
    """
    split, setup_counts = setup_mark
    incl_a, own_a, calls_a = tracer.totals(0, split)
    incl_b, own_b, calls_b = tracer.totals(split)

    def t(table_a, table_b, name):
        return table_a.get(name, 0.0) + table_b.get(name, 0.0) / passes

    def c(name):
        setup = setup_counts.get(name, 0)
        return setup + (tracer.counts.get(name, 0) - setup) / passes

    def n(name):
        return t(calls_a, calls_b, name)

    def ratio(num, den):
        return num / den if den else 0.0

    programs = c("kernel.programs")
    calls = n("machine.run_pair")
    hits, misses = c("dyadic.pow2_hits"), c("dyadic.pow2_misses")
    # means, like the layer values, so that the layers add up to trace.wall_s
    traced, untraced = statistics.fmean(traced_walls), statistics.fmean(walls)
    values = {
        "kernel.scan_s": t(incl_a, incl_b, "kernel.scan"),
        "kernel.programs": programs,
        "kernel.halt_yield": ratio(c("kernel.halts"), programs),
        "machine.run_pair_calls": calls,
        "machine.run_pair_s": t(incl_a, incl_b, "machine.run_pair"),
        "machine.route_yield": ratio(c("machine.route_halts"), calls),
        "enumerator.enumerate_s": t(incl_a, incl_b, "enumerator.enumerate"),
        "enumerator.self_s": t(own_a, own_b, "enumerator.enumerate"),
        "enumerator.events": c("enumerator.events"),
        "enumerator.output_chars": c("enumerator.output_chars"),
        "enumerator.write_log_s": t(incl_a, incl_b, "enumerator.write_log"),
        "enumerator.log_bytes": c("enumerator.log_bytes"),
        "enumerator.load_log_s": t(incl_a, incl_b, "enumerator.load_log"),
        "enumerator.load_log_calls": n("enumerator.load_log"),
        "enumerator.stream_calls": n("enumerator.stream"),
        "enumerator.stream_s": t(incl_a, incl_b, "enumerator.stream"),
        **{f"measures.{q}_s": t(incl_a, incl_b, f"measures.{q}") for q in ("omega", "cs", "z", "cst", "csbt")},
        "measures.terms": c("measures.terms"),
        "dyadic.pow2_calls": hits + misses,
        "dyadic.pow2_hit_ratio": ratio(hits, hits + misses),
        "census.profile_s": t(incl_a, incl_b, "census.profile"),
        "extractor.extract_s": t(incl_a, incl_b, "extractor.extract"),
        **{
            f"fixedpoint.{part}_s": t(incl_a, incl_b, f"fixedpoint.{part}")
            for part in ("constants", "upper_sweep", "lower_sweep", "context", "roundtrip")
        },
        "fixedpoint.checks": sum(
            n(f"fixedpoint.{part}") for part in ("upper_sweep", "lower_sweep", "floor", "roundtrip")
        ),
        "cli.commands": n("cli.main"),
        "cli.self_s": t(own_a, own_b, "cli.main"),
        **{f"rss.{stage}_mb": rss.get(stage, 0.0) for stage in STAGES},
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    assert list(values) == [name for name, _ in LAYER_METRICS]
    return values
