"""The benchmark's own span recorder.

Spans are recorded from outside the program: explicit ``with span(...)``
blocks around the calls the drivers make themselves, plus wrappers installed
over the :data:`CALL_SITES` table for the public functions those calls reach
(``InvertedIndex.build``, the detectors' ``run_round``, ...).  A table entry
whose attribute no longer exists is a hard error, so a refactor breaks the
trace loudly.  Spans *inside* ``src/repro/`` are the later ``repro.obs``
issue, which replaces these wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterator

#: (layer, span name, module, attribute) — the wrapped public call sites.
CALL_SITES = (
    ("data", "data.ledger_apply", "repro.data.stream", "ClaimLedger.apply"),
    ("data", "data.ledger_snapshot", "repro.data.stream", "ClaimLedger.snapshot"),
    ("core", "core.index_build", "repro.core.index", "InvertedIndex.build"),
    ("core", "core.detect", "repro.core.detector", "SingleRoundDetector.run_round"),
    ("core", "core.detect", "repro.core.detector", "IncrementalDetector.run_round"),
    ("parallel", "parallel.detect", "repro.parallel", "detect_hybrid_parallel"),
    ("fusion", "fusion.run", "repro.streaming.engine", "run_fusion"),
    ("serving", "serving.publish", "repro.serving.store", "SnapshotPublisher.publish_round"),
)


class TraceTableError(RuntimeError):
    """A :data:`CALL_SITES` entry no longer resolves."""


class Tracer:
    """In-memory span list; one ``run_id`` per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": stack[-1]["id"] if stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}))


def span(tracer: Tracer | None, name: str, layer: str):
    """``tracer.span(...)``, or a no-op when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, layer)


def _wrap(tracer: Tracer, name: str, layer: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer):
            return func(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, table=CALL_SITES) -> Iterator[None]:
    """Wrap every call site in ``table`` for the duration of the block.

    Raises:
        TraceTableError: a module or attribute in the table is gone.
    """
    undo = []
    try:
        for layer, name, module_name, attr_path in table:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                raise TraceTableError(
                    f"trace table entry {module_name}:{attr_path} "
                    f"({name}) no longer exists"
                ) from exc
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(tracer, name, layer, raw.__func__))
            else:
                wrapped = _wrap(tracer, name, layer, raw)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: duration minus the part its child spans cover."""
    children = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append((record["start"], record["end"]))
    out = {}
    for record in spans:
        covered, reach = 0.0, record["start"]
        for start, end in sorted(children[record["id"]]):
            start = max(start, reach)
            end = min(end, record["end"])
            if end > start:
                covered += end - start
                reach = end
        out[record["id"]] = duration(record) - covered
    return out


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def total(spans: list[dict], **match) -> float:
    """Summed duration of the spans whose fields equal ``match``."""
    return sum(duration(s) for s in spans if all(s[k] == v for k, v in match.items()))


def self_total(spans: list[dict], **match) -> float:
    """Summed self time of the spans whose fields equal ``match``."""
    own = self_times(spans)
    return sum(
        own[s["id"]] for s in spans if all(s[k] == v for k, v in match.items())
    )
