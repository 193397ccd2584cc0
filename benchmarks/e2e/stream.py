"""The streaming + serving path: a ``serve`` subprocess under an open-loop feed.

The load comes from this one process: a generator thread POSTs
``POST_CLAIMS`` claims every ``POST_PERIOD_S`` on schedule (each followed by
``GET /verdict`` calls while its epoch runs), a second thread reads
``GET /events``.  Freshness of a claim is the arrival of the SSE ``epoch``
event whose cumulative ``changed_claims`` first covers it, minus the instant
its POST was *due* — so a stalled service is charged for the requests it
delayed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from pipeline import peak_rss_mb
from registry import PARAMS, POST_CLAIMS, POST_PERIOD_S, READ_OFFSETS_S, YARDSTICK_ROOM_S
from spans import duration, installed, span, total
from stats import best_decile, median, percentile, tail_percentile, visible_at

BANNER = "streaming service on http://127.0.0.1:"
#: How long the service gets to make the last fed claims visible.
DRAIN_TIMEOUT_S = 30.0
#: How long ``serve`` gets to drain and exit after SIGINT before it is killed.
STOP_TIMEOUT_S = 30.0


class Serve:
    """A ``python -m repro serve`` subprocess, seeded and listening."""

    def __init__(self, base_csv: Path, store_dir: Path, env: dict, log_path: Path):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--store", str(store_dir),
                "--seed-claims", str(base_csv),
                "--alpha", str(PARAMS["alpha"]),
                "--s", str(PARAMS["s"]),
                "--n", str(PARAMS["n"]),
                "--backend", PARAMS["backend"],
                "--pair-layout", PARAMS["pair_layout"],
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
        )
        self.port = None
        # The banner follows the seed epoch, so reading it waits for both.
        for line in self.proc.stdout:
            if line.startswith(BANNER):
                self.port = int(line[len(BANNER) :].split()[0])
                break
        if self.port is None:
            self.proc.wait()
            self.proc.stdout.close()
            self._log.close()
            raise RuntimeError(f"serve exited before its banner (see {log_path})")

    def stop(self) -> tuple[int, float]:
        """Drain via SIGINT; returns ``(exit code, peak RSS in MB)``."""
        rss_mb = peak_rss_mb(self.proc.pid) if self.proc.poll() is None else 0.0
        os.kill(self.proc.pid, signal.SIGINT)  # not send_signal: it may reap
        give_up = time.perf_counter() + STOP_TIMEOUT_S
        while True:
            pid, status, _ = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > give_up:
                self.proc.kill()
                give_up = float("inf")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode, rss_mb


def http_call(port: int, method: str, path: str, body: bytes | None = None):
    """One short-lived request; ``(status, payload, seconds)``; status 0 = no reply."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        status, payload = 0, b""
    finally:
        conn.close()
    return status, payload, time.perf_counter() - start


class EventListener(threading.Thread):
    """Reads ``GET /events``; keeps ``(arrival, event)`` per ``epoch`` frame."""

    def __init__(self, port: int):
        super().__init__(daemon=True)
        self.epochs: list[tuple[float, dict]] = []
        self.claims_visible = 0  # cumulative ``changed_claims``
        self.connected = threading.Event()
        self._port = port

    def run(self) -> None:
        from repro.streaming import StreamClient, StreamClientError

        try:
            for event in StreamClient("127.0.0.1", self._port, timeout=600.0).events():
                arrival = time.perf_counter()
                if event["event"] == "hello":
                    self.connected.set()
                elif event["event"] == "epoch":
                    self.epochs.append((arrival, event))
                    self.claims_visible += event["changed_claims"]
        except (OSError, http.client.HTTPException, StreamClientError):
            pass  # the run's visibility check reports what was missed
        finally:
            self.connected.set()


def read_pairs(inputs: dict, seed: int, n: int) -> list[tuple[int, int]]:
    """Pairs to GET: planted copier pairs alternating with random ones.

    Ids are the service's own: sources interned in ``base.csv`` row order.
    """
    ids: dict[str, int] = {}
    for source, _, _ in inputs["rows"][: len(inputs["rows"]) - len(inputs["feed"])]:
        ids.setdefault(source, len(ids))
    planted = sorted(
        (ids[a], ids[b]) for a, b in inputs["world"].copy_pairs if a in ids and b in ids
    )
    rng = random.Random(seed)
    pairs = []
    for k in range(n):
        if k % 2 == 0 and planted:
            pairs.append(planted[rng.randrange(len(planted))])
        else:
            s1 = rng.randrange(len(ids))
            s2 = (s1 + 1 + rng.randrange(len(ids) - 1)) % len(ids)
            pairs.append((s1, s2))
    return pairs


def sleep_until(instant: float) -> None:
    delay = instant - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def run_feed(port: int, inputs: dict, seed: int, seconds: float, yardstick) -> dict:
    """Feed the service for ``seconds``; returns raw timings and events.

    One period: the POST when it is due, one ``GET /verdict`` at each of
    ``READ_OFFSETS_S`` after that (while the POST's epoch runs), then — once
    that epoch's event is in and the period has ``YARDSTICK_ROOM_S`` left —
    one yardstick pass, so a pass never runs beside the work it calibrates.
    """
    n_posts = max(1, min(int(seconds / POST_PERIOD_S), len(inputs["feed"]) // POST_CLAIMS))
    fed = inputs["feed"][: n_posts * POST_CLAIMS]
    bodies = [
        json.dumps(
            {
                "claims": [
                    {"source": s, "item": i, "value": v}
                    for s, i, v in fed[k * POST_CLAIMS : (k + 1) * POST_CLAIMS]
                ]
            }
        ).encode()
        for k in range(n_posts)
    ]
    pairs = iter(read_pairs(inputs, seed, n_posts * len(READ_OFFSETS_S)))

    listener = EventListener(port)
    listener.start()
    listener.connected.wait(timeout=30.0)

    late, post_s, read_s, post_status, read_ok = [], [], [], [], []
    start = time.perf_counter() + 0.05
    due = [start + k * POST_PERIOD_S for k in range(n_posts)]
    for k in range(n_posts):
        sleep_until(due[k])
        late.append(max(0.0, time.perf_counter() - due[k]))
        status, _, seconds_taken = http_call(port, "POST", "/claims", bodies[k])
        post_status.append(status)
        post_s.append(seconds_taken)
        for offset in READ_OFFSETS_S:
            sleep_until(due[k] + offset)
            s1, s2 = next(pairs)
            status, payload, seconds_taken = http_call(port, "GET", f"/verdict?s1={s1}&s2={s2}")
            read_s.append(seconds_taken)
            read_ok.append(status == 200 and b'"verdict"' in payload)
        room_ends = due[k] + POST_PERIOD_S - YARDSTICK_ROOM_S
        while time.perf_counter() < room_ends:
            if listener.claims_visible >= (k + 1) * POST_CLAIMS:
                yardstick.measure()
                break
            time.sleep(0.005)
    _, payload, _ = http_call(port, "GET", "/stats")
    backlog = json.loads(payload).get("pending", 0) if payload else -1

    give_up = time.perf_counter() + DRAIN_TIMEOUT_S
    while listener.claims_visible < len(fed) and time.perf_counter() < give_up:
        time.sleep(0.02)
    epochs = list(listener.epochs)
    return {
        "fed": fed,
        "due": due,
        "late": late,
        "post_s": post_s,
        "read_s": read_s,
        "post_status": post_status,
        "read_ok": read_ok,
        "backlog": backlog,
        "epochs": epochs,
        "listener": listener,
    }


def summarise(feed: dict) -> dict:
    """Freshness and the ``streaming.*`` numbers from one feed's raw record."""
    fed, due, epochs = feed["fed"], feed["due"], feed["epochs"]
    arrivals = [t for t, _ in epochs]
    changed = [e["changed_claims"] for _, e in epochs]
    seen = visible_at(arrivals, changed, len(fed))
    fresh, waits = [], []
    own_epoch = {t: e["elapsed_seconds"] for t, e in epochs}
    for j, shown in enumerate(seen):
        if shown is not None:
            fresh.append(shown - due[j // POST_CLAIMS])
            waits.append(fresh[-1] - own_epoch[shown])
    never_visible = len(fed) - len(fresh)
    elapsed = [e["elapsed_seconds"] for _, e in epochs]
    tail = tail_percentile(len(fresh))
    wall = (arrivals[-1] - due[0]) if arrivals else 0.0
    ms = 1e3
    return {
        "fresh_s": fresh,
        "never_visible": never_visible,
        "fresh_best_decile_s": best_decile(fresh) if fresh else 0.0,
        "read_p50_s": median(feed["read_s"]),
        "streaming.read_p50_ms": median(feed["read_s"]) * ms,
        "streaming.read_p90_ms": percentile(feed["read_s"], 90) * ms,
        "streaming.fresh_p50_ms": median(fresh) * ms if fresh else 0.0,
        "streaming.fresh_p90_ms": percentile(fresh, 90) * ms if tail else 0.0,
        "streaming.fresh_p99_ms": percentile(fresh, 99) * ms if tail and tail >= 99 else 0.0,
        "streaming.epochs": len(epochs),
        "streaming.epoch_s_p50": median(elapsed) if elapsed else 0.0,
        "streaming.epoch_s_p90": percentile(elapsed, 90) if elapsed else 0.0,
        "streaming.rounds_p50": median(e["rounds"] for _, e in epochs) if epochs else 0,
        "streaming.batch_claims_p50": median(changed) if changed else 0,
        "streaming.wait_ms_p50": median(waits) * ms if waits else 0.0,
        "streaming.busy_share": sum(elapsed) / wall if wall > 0 else 0.0,
        "streaming.post_ms_p50": median(feed["post_s"]) * ms,
        "streaming.backlog_end_claims": feed["backlog"],
        "streaming.drain_s": max(0.0, arrivals[-1] - due[-1]) if arrivals else 0.0,
        "bench.gen_late_max_ms": max(feed["late"]) * ms,
    }


def replay(base_csv: Path, feed: dict, store_dir: Path, tracer) -> dict:
    """In-process ``StreamEngine`` replay of the epochs the live run formed.

    Seed epoch plus one epoch per live SSE event, each holding exactly the
    claims that event reported, with the trace table installed.  Returns the
    final engine state next to the per-epoch stage medians.
    """
    from repro import CopyParams
    from repro.data import ClaimDelta, load_claims
    from repro.serving import VerdictReader
    from repro.streaming import StreamEngine

    base = load_claims(base_csv)
    batches = [
        [
            ClaimDelta(base.source_names[s], base.item_names[i], base.value_label[v])
            for s, i, v in base.iter_claims()
        ]
    ]
    cursor = 0
    for _, event in feed["epochs"]:
        n = event["changed_claims"]
        batches.append([ClaimDelta(*row) for row in feed["fed"][cursor : cursor + n]])
        cursor += n

    reader, results = None, []
    with StreamEngine(store=store_dir, params=CopyParams(**PARAMS)) as engine:
        with installed(tracer):
            for batch in batches:
                with span(tracer, "streaming.epoch", "streaming"):
                    results.append(engine.run_epoch(batch))
                if reader is None:
                    with span(tracer, "serving.reader_open", "serving"):
                        reader = VerdictReader(engine.store)
                else:
                    with span(tracer, "serving.refresh", "serving"):
                        reader.refresh()
        state = engine.state

    recorded = tracer.spans
    stages = {"ledger": [], "fusion": [], "publish": [], "other": []}
    for epoch in [s for s in recorded if s["name"] == "streaming.epoch"][1:]:
        kids = [s for s in recorded if s["parent"] == epoch["id"]]
        took = {
            "ledger": total(kids, layer="data"),
            "fusion": total(kids, name="fusion.run"),
            "publish": total(kids, name="serving.publish"),
        }
        took["other"] = duration(epoch) - sum(took.values())
        for stage, value in took.items():
            stages[stage].append(value)
    refresh = [duration(s) for s in recorded if s["name"] == "serving.refresh"]
    return {
        "state": state,
        "fusions": [r.fusion for r in results[1:] if r.fusion is not None],
        "stage_p50": {k: (median(v) if v else 0.0) for k, v in stages.items()},
        "refresh_s_p50": median(refresh) if refresh else 0.0,
    }


def live_equals_replay(live_store: Path, state) -> tuple[int, int]:
    """Compare the live store's final snapshot with the replay's final state.

    Returns ``(compared, disagreeing)`` over every fused truth and every
    source pair, through the public reader API.
    """
    from repro.serving import VerdictReader

    reader = VerdictReader(live_store)
    compared = disagreeing = 0
    for item, value in state.chosen.items():
        truth = reader.get_truth(item)
        compared += 1
        disagreeing += truth is None or truth.value != value
    decisions = state.detection.decisions
    n = state.dataset.n_sources
    if n != reader.n_sources:
        return compared + 1, disagreeing + 1
    for s1 in range(n):
        for s2 in range(s1 + 1, n):
            decision = decisions.get((s1, s2))
            verdict = reader.get_verdict(s1, s2)
            compared += 1
            if decision is None or verdict is None:
                disagreeing += not (decision is None and verdict is None)
            else:
                disagreeing += verdict.copying != decision.copying
    return compared, disagreeing
