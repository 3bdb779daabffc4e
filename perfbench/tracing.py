"""Per-layer tracing of florasim, installed from outside the package.

``Tracer.install`` wraps the package's public functions at every module
binding the package looks them up through (a from-imported name is a
separate binding, so ``simulation.local_train`` is wrapped as well as
``training.local_train``). Spanned calls record (name, start, end, span id,
parent id) in memory; high-frequency calls (``derive_seed``, adapter
construction, ledger appends) are only counted. Nothing under ``src/`` knows
about the tracer, and ``uninstall`` restores every binding.

A wrapped name that the package no longer has is recorded in ``absent`` and
its metrics read 0; it is never an error.

This module imports neither numpy nor florasim at import time, so the
benchmark can time the package import on its own.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

# (module, attribute, span name). Several functions may share a span name;
# a call nested inside another call of the same name is not counted again.
SPANNED = (
    ("training", "evaluate", "training.evaluate"),
    ("training", "local_train", "training.local_train"),
    ("lora", "init_adapter", "lora.init_adapter"),
    ("lora", "adapter_delta", "lora.adapter_delta"),
    ("data", "gen_task", "data.gen_task"),
    ("data", "partition", "data.partition"),
    ("aggregation", "aggregate_flora", "aggregation.aggregate"),
    ("aggregation", "aggregate_fedit", "aggregation.aggregate"),
    ("aggregation", "aggregate_zero_padding", "aggregation.aggregate"),
    ("aggregation", "fedit_noise", "aggregation.noise"),
    ("aggregation", "oracle_delta", "aggregation.oracle_delta"),
    ("comm", "charge_round", "comm.charge_round"),
    ("comm", "CommLedger.round_totals", "comm.round_totals"),
    ("comm", "emit_rows", "comm.emit"),
    ("simulation", "compare_strategies", "simulation.compare_strategies"),
    ("simulation", "run_experiment", "simulation.run_experiment"),
    ("simulation", "run_round", "simulation.run_round"),
    ("config", "parse_config", "config.parse"),
)

# (module, attribute, counter name): counted, no span.
COUNTED = (
    ("rng", "derive_seed", "rng.derive_seed.calls"),
    ("lora", "LoraAdapter.__post_init__", "lora.adapter.constructions"),
    ("comm", "CommLedger.add", "comm.ledger.events"),
)

# The check names of florasim.verification.CHECKS; each is timed as a span.
VERIFY_CHECKS = (
    "stacking-exactness",
    "noise-decomposition",
    "fedit-bias",
    "zero-padding-collapse",
    "shuffle-invariance",
    "gradient-correctness",
    "strategy-separation",
    "noise-growth",
    "comm-accounting",
    "determinism",
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("training.evaluate.calls", "count"),
    ("training.evaluate.s", "s"),
    ("training.local_train.calls", "count"),
    ("training.local_train.s", "s"),
    ("training.sgd_steps", "count"),
    ("training.sgd_samples", "count"),
    ("lora.adapter.constructions", "count"),
    ("lora.init_adapter.calls", "count"),
    ("lora.init_adapter.s", "s"),
    ("lora.adapter_delta.calls", "count"),
    ("lora.adapter_delta.s", "s"),
    ("data.gen_task.calls", "count"),
    ("data.gen_task.s", "s"),
    ("data.partition.calls", "count"),
    ("data.partition.s", "s"),
    ("aggregation.aggregate.calls", "count"),
    ("aggregation.aggregate.s", "s"),
    ("aggregation.noise.calls", "count"),
    ("aggregation.noise.s", "s"),
    ("aggregation.oracle_delta.calls", "count"),
    ("comm.charge_round.s", "s"),
    ("comm.round_totals.calls", "count"),
    ("comm.round_totals.s", "s"),
    ("comm.ledger.events", "count"),
    ("comm.params_up", "count"),
    ("comm.params_down", "count"),
    ("comm.emit.s", "s"),
    ("simulation.run_round.calls", "count"),
    ("simulation.run_round.self_s", "s"),
    ("simulation.round_ms.p50", "ms"),
    ("simulation.round_ms.p98", "ms"),
    *((f"verification.{check}.s", "s") for check in VERIFY_CHECKS),
    ("config.parse.s", "s"),
    ("rng.derive_seed.calls", "count"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Span:
    """One traced call; parent_id 0 means no traced caller."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: int


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return {
        span.span_id: (span.end - span.start)
        - _covered(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.span_id, ())
        )
        for span in spans
    }


def outermost(spans: list[Span]) -> list[Span]:
    """Spans with no ancestor of the same name."""
    by_id = {span.span_id: span for span in spans}
    kept = []
    for span in spans:
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            kept.append(span)
    return kept


def tail_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ten values lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


class Tracer:
    """Wraps florasim at its module bindings and records spans and counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so every call records a span called name."""

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(name, start, end, span_id, parent))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so every call increments the counter called name."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function of the already-imported florasim modules."""
        for module, attr, name in SPANNED:
            self._wrap(module, attr, lambda fn, name=name: self.spanned(name, fn))
        for module, attr, name in COUNTED:
            self._wrap(module, attr, lambda fn, name=name: self.counted(name, fn))
        self._wrap("training", "local_train", self._sgd_counter)
        self._wrap("comm", "CommLedger.add", self._traffic_counter)
        verification = sys.modules.get("florasim.verification")
        if verification is not None:
            checks = getattr(verification, "CHECKS", None)
            if checks is None:
                self.absent.append("verification.CHECKS")
            else:
                self._set(
                    verification,
                    "CHECKS",
                    tuple((c, self.spanned(f"verification.{c}", fn)) for c, fn in checks),
                )

    def uninstall(self) -> None:
        """Restore every binding install replaced, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = sys.modules.get(f"florasim.{module}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = (
            owner.__dict__.get(method) if isinstance(owner, type) else getattr(owner, attr, None)
        )
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, method, wrapper)
            return
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "florasim" or name.startswith("florasim.")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, binding, wrapper)

    def _sgd_counter(self, fn: Callable) -> Callable:
        """Count SGD steps and samples from local_train's documented contract:
        local_epochs passes over the shard in batches of min(batch_size, size)."""
        counts = self.counts

        def wrapper(model, shard, cfg, *args, **kwargs):
            size = shard.size
            batch = min(cfg.batch_size, size)
            counts["training.sgd_steps"] += cfg.local_epochs * -(-size // batch)
            counts["training.sgd_samples"] += cfg.local_epochs * size
            return fn(model, shard, cfg, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _traffic_counter(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(ledger, event, *args, **kwargs):
            counts[f"comm.params_{event.direction}"] += event.param_count
            return fn(ledger, event, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts.

        ``<span>.calls`` and ``<span>.s`` cover outermost calls of each span
        name. trace.overhead_s needs an untraced run and is left to the caller.
        """
        out: dict[str, float] = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_s"}
        for span in outermost(self.spans):
            calls, secs = f"{span.name}.calls", f"{span.name}.s"
            if calls in out:
                out[calls] += 1
            if secs in out:
                out[secs] += span.end - span.start
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        rounds = [s for s in self.spans if s.name == "simulation.run_round"]
        selfs = self_times(self.spans)
        out["simulation.run_round.self_s"] = sum(selfs[s.span_id] for s in rounds)
        round_ms = sorted((s.end - s.start) * 1e3 for s in rounds)
        if round_ms:
            mid = len(round_ms) // 2
            out["simulation.round_ms.p50"] = (round_ms[mid] + round_ms[~mid]) / 2
        out["simulation.round_ms.p98"] = tail_percentile(round_ms, 98) or 0.0
        return out

    def write_spans(self, path, header: dict) -> None:
        """Write a header line and one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.span_id, s.parent_id]) + "\n")

