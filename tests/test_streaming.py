"""Streaming layer: ledger intake, epoch engine, and the asyncio service.

The load-bearing assertions here are the lockstep-parity ones the
architecture promises (see ``src/repro/streaming/engine.py``):

* a live :class:`StreamingService` run and a synchronous
  :func:`replay_epochs` run over the same epoch partitions produce
  *exactly* equal accuracies, truths and pair decisions per epoch;
* with warm starts off, the final streamed epoch is exactly equal to
  one batch INDEX ``run_fusion`` over the accumulated claims.

Everything async uses ``asyncio.run`` directly (no pytest-asyncio in
the environment).
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import CopyParams, PairNotObservedError, SingleRoundDetector
from repro.data import ClaimDelta, ClaimLedger, coalesce_deltas
from repro.fusion import FusionConfig, run_fusion
from repro.serving import VerdictReader, VerdictStore
from repro.streaming import (
    StreamEngine,
    StreamingService,
    replay_epochs,
)
from tests.test_columns import _republished

# ----------------------------------------------------------------------
# World builders: rich enough that the hybrid index actually opens pairs
# (tiny worlds put every entry in the index tail and observe nothing).
# ----------------------------------------------------------------------


def make_world(
    n_independent: int = 4,
    n_items: int = 12,
    n_copiers: int = 2,
    seed: int = 7,
) -> list[ClaimDelta]:
    """Claims with planted copying: copiers clone source ``S0`` verbatim."""
    rng = random.Random(seed)
    deltas: list[ClaimDelta] = []
    claims_of_s0: dict[str, str] = {}
    for s in range(n_independent):
        source = f"S{s}"
        for i in range(n_items):
            item = f"I{i:02d}"
            if rng.random() < 0.7:
                value = f"true-{i}"
            else:
                value = f"wrong-{i}-{rng.randint(0, 1)}"
            deltas.append(ClaimDelta(source, item, value))
            if s == 0:
                claims_of_s0[item] = value
    for c in range(n_copiers):
        source = f"C{c}"
        for i in range(n_items):
            item = f"I{i:02d}"
            deltas.append(ClaimDelta(source, item, claims_of_s0[item]))
    return deltas


def partition(deltas: list[ClaimDelta], n: int) -> list[list[ClaimDelta]]:
    """Split a delta stream into ``n`` contiguous epochs."""
    size = (len(deltas) + n - 1) // n
    return [deltas[i : i + size] for i in range(0, len(deltas), size)]


def copying_pair(state) -> tuple[int, int]:
    """A pair the epoch's own detection marks copying.

    On :func:`make_world` exact detection marks (S1, S2) and (S1, S3),
    and not the verbatim clones of S0.
    """
    return next(pair for pair, d in state.detection.decisions.items() if d.copying)


@pytest.fixture(scope="module")
def world() -> list[ClaimDelta]:
    return make_world()


@pytest.fixture(scope="module")
def epochs(world) -> list[list[ClaimDelta]]:
    return partition(world, 3)


# ----------------------------------------------------------------------
# ClaimDelta + coalescing
# ----------------------------------------------------------------------


class TestClaimDelta:
    def test_json_round_trip(self):
        delta = ClaimDelta("S0", "NJ", "Trenton")
        assert ClaimDelta.from_json(delta.to_json()) == delta

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"source": "S0", "item": "NJ"},
            {"source": "S0", "item": "NJ", "value": 7},
            "not-a-mapping",
        ],
    )
    def test_from_json_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            ClaimDelta.from_json(obj)


class TestCoalesce:
    def test_burst_collapses_to_first_position_last_value(self):
        burst = [
            ClaimDelta("S0", "NJ", "Trenton"),
            ClaimDelta("S1", "NJ", "Newark"),
            ClaimDelta("S0", "NJ", "Newark"),
            ClaimDelta("S0", "NJ", "Princeton"),
        ]
        out = coalesce_deltas(burst)
        # S0's slot stays first (interning-order stability) but carries
        # the burst's final value (last-writer-wins).
        assert out == [
            ClaimDelta("S0", "NJ", "Princeton"),
            ClaimDelta("S1", "NJ", "Newark"),
        ]

    def test_verbatim_resends_dedupe(self):
        burst = [ClaimDelta("S0", "NJ", "Trenton")] * 5
        assert coalesce_deltas(burst) == [ClaimDelta("S0", "NJ", "Trenton")]

    def test_distinct_keys_untouched(self, world):
        assert coalesce_deltas(world) == world


# ----------------------------------------------------------------------
# ClaimLedger
# ----------------------------------------------------------------------


class TestClaimLedger:
    def test_apply_accounting(self):
        ledger = ClaimLedger()
        update = ledger.apply(
            [
                ClaimDelta("S0", "NJ", "Trenton"),
                ClaimDelta("S1", "NJ", "Newark"),
            ]
        )
        assert update.n_deltas == 2
        assert update.changed_claims == 2
        assert update.new_sources == 2
        assert update.new_items == 1
        assert update.new_values == 2
        assert not update.is_noop

    def test_confirmations_are_noops(self):
        ledger = ClaimLedger()
        ledger.apply([ClaimDelta("S0", "NJ", "Trenton")])
        v = ledger.version
        update = ledger.apply([ClaimDelta("S0", "NJ", "Trenton")])
        assert update.confirmations == 1
        assert update.changed_claims == 0
        assert update.is_noop
        assert ledger.version == v  # version advances only on change

    def test_value_flip_changes(self):
        ledger = ClaimLedger()
        ledger.apply([ClaimDelta("S0", "NJ", "Trenton")])
        update = ledger.apply([ClaimDelta("S0", "NJ", "Newark")])
        assert update.changed_claims == 1
        assert not update.is_noop
        assert len(ledger) == 1  # last-writer-wins, not append

    def test_snapshot_identity_between_batches(self, world):
        ledger = ClaimLedger()
        ledger.apply(world)
        first = ledger.snapshot()
        assert ledger.snapshot() is first  # cached per version
        ledger.apply([ClaimDelta("S9", "I00", "true-0")])
        assert ledger.snapshot() is not first

    def test_seeded_ledger_reproduces_base(self, world):
        ledger = ClaimLedger()
        ledger.apply(world)
        base = ledger.snapshot()
        seeded = ClaimLedger()
        seeded.apply(
            ClaimDelta(base.source_names[s], base.item_names[i], base.value_label[v])
            for s, i, v in base.iter_claims()
        )
        again = seeded.snapshot()
        assert again.source_names == base.source_names
        assert again.item_names == base.item_names
        assert again.value_label == base.value_label
        assert list(again.iter_claims()) == list(base.iter_claims())

    def test_streamed_interning_matches_batch_interning(self, world, epochs):
        streamed = ClaimLedger()
        for epoch in epochs:
            streamed.apply(epoch)
        batch = ClaimLedger()
        batch.apply(world)
        assert (
            streamed.snapshot().source_names == batch.snapshot().source_names
        )
        assert list(streamed.snapshot().iter_claims()) == list(
            batch.snapshot().iter_claims()
        )

    def test_a_fork_and_its_base_never_see_each_others_writes(self, world):
        base = ClaimLedger()
        base.apply(world)
        before = list(base.snapshot().iter_claims())
        fork = base.fork()
        assert fork.snapshot() is base.snapshot()  # same version, same object
        fork.apply([ClaimDelta("S0", "I00", "fork-only"), ClaimDelta("S0", "NEW", "x")])
        assert list(base.snapshot().iter_claims()) == before
        sibling = base.fork()  # a second fork of the same base
        base.apply([ClaimDelta("S1", "I00", "base-only")])
        assert list(sibling.snapshot().iter_claims()) == before
        fork_claims = fork.snapshot().claims
        assert fork_claims[1] == sibling.snapshot().claims[1]  # S1 untouched
        assert "fork-only" in fork.snapshot().value_label
        assert "fork-only" not in base.snapshot().value_label
        assert "base-only" not in fork.snapshot().value_label


# ----------------------------------------------------------------------
# StreamEngine epochs
# ----------------------------------------------------------------------


class TestStreamEngine:
    def test_epochs_publish_consecutive_snapshots(self, tmp_path, epochs):
        with StreamEngine(store=tmp_path / "store") as engine:
            ids = [engine.run_epoch(epoch).snapshot_id for epoch in epochs]
        assert ids == [1, 2, 3]

    def test_confirmation_batch_is_skipped(self, tmp_path, epochs):
        with StreamEngine(store=tmp_path / "store") as engine:
            first = engine.run_epoch(epochs[0])
            again = engine.run_epoch(epochs[0])  # pure re-confirmation
        assert not first.skipped
        assert again.skipped
        assert again.fusion is None
        assert again.epoch == first.epoch  # epoch counter did not advance
        # No new snapshot was written; the state still points at epoch 1's.
        assert again.snapshot_id == first.snapshot_id == 1
        store = VerdictStore(tmp_path / "store")
        assert store.current_id() == 1

    def test_empty_first_batch_is_skipped(self, tmp_path):
        with StreamEngine(store=tmp_path / "store") as engine:
            result = engine.run_epoch([])
        assert result.skipped
        assert result.snapshot_id is None
        assert engine.state is None

    def test_no_store_runs_unpublished(self, epochs):
        with StreamEngine() as engine:
            result = engine.run_epoch(epochs[0])
        assert not result.skipped
        assert result.snapshot_id is None
        assert engine.state.snapshot_id is None

    def test_warm_start_seeds_previous_accuracies(self, epochs):
        cold = replay_epochs(epochs, warm_start=False)
        warm = replay_epochs(epochs, warm_start=True)
        # Both converge; the warm run never needs more rounds than cold
        # on a quiet feed (that is the whole point of warm starts).
        assert all(r.fusion.converged for r in cold if not r.skipped)
        assert warm[-1].fusion.n_rounds <= cold[-1].fusion.n_rounds

    def test_reader_sees_every_epoch_version(self, tmp_path, epochs):
        store = VerdictStore(tmp_path / "store")
        with StreamEngine(store=store) as engine:
            results = [engine.run_epoch(epoch) for epoch in epochs]
            reader = VerdictReader(store)
            reader.refresh()
            assert reader.snapshot_id == results[-1].snapshot_id

    def test_labels_grow_through_delta_snapshots(self, tmp_path, world):
        """Items/values first seen in epoch 2+ resolve by name at the reader.

        Regression: delta snapshots used to omit label tables, so a
        reader refreshed past a world-growing epoch hit unresolvable
        value ids.
        """
        store = VerdictStore(tmp_path / "store")
        chunks = partition(world, 3)
        with StreamEngine(store=store) as engine:
            engine.run_epoch(chunks[0])
            reader = VerdictReader(store)
            n_values_before = len(engine.state.dataset.value_label)
            engine.run_epoch(chunks[1])
            engine.run_epoch(chunks[2])
            reader.refresh()
            grown = engine.state.dataset
        assert len(grown.value_label) > n_values_before
        # Every fused item resolves to a labelled truth post-growth.
        for item_id in range(grown.n_items):
            truth = reader.get_truth(grown.item_names[item_id])
            assert truth is not None
            assert truth.value_label == grown.value_label[truth.value]

    def test_new_sources_extend_the_chain(self, tmp_path, world, monkeypatch):
        """A pair's key does not depend on the source count, so the
        engine keeps its one publisher — and its snapshot chain — across
        an epoch in which a source appears."""
        from repro.serving import SnapshotPublisher

        built = []
        init = SnapshotPublisher.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(SnapshotPublisher, "__init__", counting_init)
        store = VerdictStore(tmp_path / "store")
        newcomer = [
            ClaimDelta("LATE", f"I{i:02d}", f"true-{i}") for i in range(12)
        ]
        with StreamEngine(store=store) as engine:
            engine.run_epoch(world)
            n_before = engine.state.dataset.n_sources
            published = dict(engine.state.detection.decisions)
            engine.run_epoch(newcomer)
            assert built == [engine._publisher]
            state = engine.state
        n_sources = state.dataset.n_sources
        assert n_sources == n_before + 1
        assert engine._publisher.snapshot_ids == [1, 2]
        # A reader opened afterwards serves the grown epoch, pair for
        # pair.  Snapshot 2 is a delta: a row that is new or moved past
        # the store's tolerance carries epoch 2's bits, any other row
        # keeps epoch 1's.
        reader = VerdictReader(store)
        assert reader.n_sources == n_sources
        decisions = state.detection.decisions
        late = n_sources - 1
        assert any(late in pair for pair in decisions)
        for s1 in range(n_sources):
            for s2 in range(s1 + 1, n_sources):
                verdict = reader.get_verdict(s1, s2)
                decision = decisions.get((s1, s2))
                if decision is None:
                    assert verdict is None
                    continue
                old = published.get((s1, s2))
                served = decision if _republished(old, decision) else old
                assert verdict.copying == decision.copying
                assert (verdict.c_fwd, verdict.c_bwd) == (served.c_fwd, served.c_bwd)

    def test_source_ids_widen_across_epochs(self, tmp_path):
        """120 sources store their ids as int8; an epoch that brings the
        count past 127 stores them as int16, and a reader over the
        chain serves the engine's state."""
        from repro.serving import read_snapshot_file

        rng = random.Random(3)
        base, cloned = [], {}
        for s in range(120):
            for i in range(6):
                value = f"true-{i}" if rng.random() < 0.7 else f"wrong-{i}"
                base.append(ClaimDelta(f"S{s:03d}", f"I{i}", value))
                cloned.setdefault(f"I{i}", value)  # S000's claims
        base += [ClaimDelta(f"S{s:03d}", "J", "a") for s in range(3)]
        # Sixteen late sources clone S000 and outvote J's truth.
        late = [
            ClaimDelta(f"L{c:02d}", item, value)
            for c in range(16)
            for item, value in [*cloned.items(), ("J", "b")]
        ]
        store = VerdictStore(tmp_path / "store")
        with StreamEngine(store=store) as engine:
            engine.run_epoch(base)
            engine.run_epoch(late)
            state = engine.state
        first, last = (
            read_snapshot_file(store.snapshot_path(sid))[1]
            for sid in (1, state.snapshot_id)
        )
        for name in ("item_prov_sources", "copier_sources"):
            assert first[name].dtype == np.int8, name
            assert last[name].dtype == np.int16, name
        reader = VerdictReader(store)
        dataset = state.dataset
        assert reader.n_sources == dataset.n_sources == 136
        decisions = state.detection.decisions
        for s1 in range(dataset.n_sources):
            for s2 in range(s1 + 1, dataset.n_sources):
                verdict, decision = reader.get_verdict(s1, s2), decisions.get((s1, s2))
                assert (verdict is None) == (decision is None), (s1, s2)
                if decision is not None:
                    assert verdict.copying == decision.copying, (s1, s2)
                    assert verdict.c_fwd == pytest.approx(decision.c_fwd, abs=1e-6)
        for item, value in state.chosen.items():
            truth = reader.get_truth(item)
            assert truth.value == value
            assert truth.probability == pytest.approx(
                state.probabilities[value], abs=1e-6
            )
        flipped = reader.get_truth("J")
        assert flipped.value_label == "b"
        assert flipped.supporters == tuple(range(120, 136))

    def test_explain_from_epoch_state(self, tmp_path, world):
        with StreamEngine(store=tmp_path / "store") as engine:
            engine.run_epoch(world)
            state = engine.state
            s1, s2 = copying_pair(state)
            explanation = state.explain(s1, s2)
            assert explanation.detected is not None
            assert explanation.detected.copying
            assert explanation.n_shared_values > 0
            with pytest.raises(ValueError):
                state.explain(s1, s1)

    def test_truth_of(self, world):
        with StreamEngine() as engine:
            engine.run_epoch(world)
            state = engine.state
            item = state.dataset.item_names.index("I00")
            value = state.chosen[item]
            assert state.dataset.value_label[value].startswith(("true-", "wrong-"))
            assert 0.0 < state.probabilities[value] <= 1.0
            assert 10_000 not in state.chosen


# ----------------------------------------------------------------------
# Lockstep parity: the acceptance criterion
# ----------------------------------------------------------------------


class TestLockstepParity:
    def test_replay_is_deterministic(self, epochs):
        a = replay_epochs(epochs)
        b = replay_epochs(epochs)
        for ra, rb in zip(a, b):
            assert ra.fusion.accuracies == rb.fusion.accuracies
            assert ra.fusion.chosen == rb.fusion.chosen
            assert (
                ra.fusion.final_detection().decisions
                == rb.fusion.final_detection().decisions
            )

    def test_cold_stream_equals_one_batch_index_run(self, world, epochs):
        """N streamed epochs == one batch INDEX run over the same deltas.

        With warm starts off, every epoch re-fuses the accumulated
        claims from the cold initial accuracy — so the final streamed
        epoch must be *exactly* (not approximately) the batch run.
        """
        cold = replay_epochs(epochs, warm_start=False)

        ledger = ClaimLedger()
        ledger.apply(world)
        params = CopyParams()
        batch = run_fusion(
            ledger.snapshot(),
            params,
            SingleRoundDetector(params, "index"),
            FusionConfig(),
        )

        final = cold[-1].fusion
        assert final.accuracies == batch.accuracies
        assert final.probabilities == batch.probabilities
        assert final.chosen == batch.chosen
        assert (
            final.final_detection().decisions
            == batch.final_detection().decisions
        )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_served_verdicts_are_exact(self, tmp_path, world, epochs, backend):
        """Every verdict a cold stream serves is PAIRWISE's exact one.

        No round-1 verdict survives into a later round: the served
        ``copying`` bit equals PAIRWISE's on the accumulated claims, the
        scores agree to 1e-9 and no row is an early bound decision.
        """
        params = CopyParams(backend=backend)
        store = VerdictStore(tmp_path / "store")
        replay_epochs(epochs, store=store, params=params, warm_start=False)
        ledger = ClaimLedger()
        ledger.apply(world)
        exact = run_fusion(
            ledger.snapshot(),
            params,
            SingleRoundDetector(params, "pairwise"),
            FusionConfig(),
        ).final_detection().decisions
        reader = VerdictReader(store)
        served = {}
        for s1 in range(reader.n_sources):
            for s2 in range(s1 + 1, reader.n_sources):
                verdict = reader.get_verdict(s1, s2)
                if verdict is not None:
                    served[s1, s2] = verdict
        assert served.keys() == exact.keys()
        assert {pair for pair, v in served.items() if v.copying} == {
            pair for pair, d in exact.items() if d.copying
        }
        for pair, verdict in served.items():
            decision = exact[pair]
            assert verdict.early is False, pair
            assert (
                verdict.c_fwd,
                verdict.c_bwd,
                verdict.independent,
                verdict.forward,
                verdict.backward,
            ) == pytest.approx(
                (decision.c_fwd, decision.c_bwd, *decision.posterior), abs=1e-9
            ), pair

    def test_warm_stream_decisions_match_batch(self, world, epochs):
        """Warm starts change round counts, not converged conclusions."""
        warm = replay_epochs(epochs, warm_start=True)
        ledger = ClaimLedger()
        ledger.apply(world)
        params = CopyParams()
        batch = run_fusion(
            ledger.snapshot(),
            params,
            SingleRoundDetector(params, "index"),
            FusionConfig(),
        )
        final = warm[-1].fusion
        assert final.chosen == batch.chosen
        for key, decision in batch.final_detection().decisions.items():
            streamed = final.final_detection().decisions[key]
            assert streamed.copying == decision.copying
        # Warm starts converge to the same fixed point, but from a
        # different trajectory — agreement is within the fusion loop's
        # convergence tolerance, not bit-exact (that is the cold run's
        # guarantee, asserted above).
        for a, b in zip(final.accuracies, batch.accuracies):
            assert a == pytest.approx(b, abs=1e-6)


# ----------------------------------------------------------------------
# StreamingService: micro-batching, debounce, drain
# ----------------------------------------------------------------------


def _service(tmp_path, **kwargs) -> StreamingService:
    defaults = dict(max_batch=10_000, max_delay=0.2, debounce=0.02)
    defaults.update(kwargs)
    return StreamingService(StreamEngine(store=tmp_path / "store"), **defaults)


class TestServiceValidation:
    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            StreamingService(StreamEngine(), max_batch=0)
        with pytest.raises(ValueError):
            StreamingService(StreamEngine(), max_delay=0.0)
        with pytest.raises(ValueError):
            StreamingService(StreamEngine(), debounce=-1.0)
        # NaN passes ``<= 0`` / ``< 0``: a lone batch would never flush.
        with pytest.raises(ValueError):
            StreamingService(StreamEngine(), max_delay=float("nan"))
        with pytest.raises(ValueError):
            StreamingService(StreamEngine(), debounce=float("nan"))
        StreamingService(StreamEngine(), max_delay=float("inf"))  # no deadline

    def test_debounce_capped_at_max_delay(self, tmp_path):
        service = StreamingService(
            StreamEngine(), max_delay=0.1, debounce=5.0
        )
        assert service.debounce == 0.1


class TestServiceEpochs:
    def test_debounce_coalesces_a_burst_into_one_epoch(self, tmp_path, world):
        """A bursty source re-sending within the debounce window yields
        one epoch whose batch kept first position and last value."""

        async def main():
            async with _service(tmp_path) as service:
                service.submit(world)
                # Re-send S0's first claim three times, last value wins.
                for value in ("true-0", "flip-a", "flip-b"):
                    service.submit([ClaimDelta("S0", "I00", value)])
                    await asyncio.sleep(0.001)
                await service.flush()
                return service.stats(), service.state

        stats, state = asyncio.run(main())
        assert stats["epochs_run"] == 1  # burst coalesced, one epoch
        assert stats["claims_received"] == len(world) + 3
        s0 = state.dataset.source_names.index("S0")
        i00 = state.dataset.item_names.index("I00")
        claimed = state.dataset.claims[s0][i00]
        assert state.dataset.value_label[claimed] == "flip-b"

    def test_deadline_flush_of_pure_confirmations_publishes_nothing(
        self, tmp_path, world
    ):
        """A deadline-triggered flush whose batch is a no-op (verbatim
        re-confirmations) runs no fusion and publishes no snapshot."""

        async def main():
            async with _service(tmp_path) as service:
                service.submit(world)
                await service.flush()
                after_first = service.stats()
                service.submit(world[:5])  # verbatim re-sends
                await service.flush()
                return after_first, service.stats()

        first, second = asyncio.run(main())
        assert first["epochs_run"] == 1
        assert second["epochs_run"] == 1
        assert second["epochs_skipped"] == 1
        assert second["snapshot_id"] == first["snapshot_id"] == 1
        assert VerdictStore(tmp_path / "store").current_id() == 1

    def test_size_trigger_flushes_immediately(self, tmp_path, world):
        async def main():
            # max_batch below the submission size, huge deadline: only
            # the size trigger can flush this fast.
            service = _service(
                tmp_path, max_batch=len(world), max_delay=30.0, debounce=30.0
            )
            async with service:
                service.submit(world)
                await asyncio.wait_for(service.flush(), timeout=5.0)
                return service.stats()

        stats = asyncio.run(main())
        assert stats["epochs_run"] >= 1
        assert stats["pending"] == 0

    def test_shutdown_drain_publishes_pending_mid_epoch(self, tmp_path, world):
        """Deltas still pending at stop(drain=True) land in a final
        published epoch — no accepted claim is dropped."""

        async def main():
            service = _service(tmp_path, max_delay=30.0, debounce=30.0)
            await service.start()
            service.submit(world)  # would sit for 30s without the drain
            await service.stop(drain=True)
            return service.stats()

        stats = asyncio.run(main())
        assert stats["epochs_run"] == 1
        assert stats["pending"] == 0
        assert stats["snapshot_id"] == 1
        assert VerdictStore(tmp_path / "store").current_id() == 1

    def test_shutdown_without_drain_discards_pending(self, tmp_path, world):
        async def main():
            service = _service(tmp_path, max_delay=30.0, debounce=30.0)
            await service.start()
            service.submit(world)
            await service.stop(drain=False)
            return service.stats()

        stats = asyncio.run(main())
        assert stats["epochs_run"] == 0
        assert stats["pending"] == 0
        assert stats["snapshot_id"] is None

    def test_subscribers_see_epoch_events_and_shutdown(self, tmp_path, world):
        async def main():
            service = _service(tmp_path)
            await service.start()
            queue = service.subscribe()
            service.submit(world)
            await service.flush()
            await service.stop()
            events = []
            while not queue.empty():
                events.append(queue.get_nowait())
            return events

        events = asyncio.run(main())
        assert [e["type"] for e in events] == ["epoch", "shutdown"]
        assert events[0]["epoch"] == 1
        assert events[0]["snapshot_id"] == 1
        assert events[0]["changed_claims"] == len(world)

    def test_live_queries_before_first_epoch_raise(self, tmp_path):
        async def main():
            async with _service(tmp_path) as service:
                with pytest.raises(RuntimeError):
                    service.explain_pair(0, 1)
                return True

        assert asyncio.run(main())

    def test_reader_requires_a_store(self):
        async def main():
            async with StreamingService(StreamEngine()) as service:
                with pytest.raises(RuntimeError):
                    service.reader  # noqa: B018 - the access is the test
                return True

        assert asyncio.run(main())

    def test_live_service_lockstep_with_replay(self, tmp_path, world, epochs):
        """The acceptance parity: live async epochs == synchronous replay."""

        async def main():
            async with _service(tmp_path) as service:
                per_epoch = []
                for epoch in epochs:
                    service.submit(epoch)
                    await service.flush()
                    state = service.state
                    per_epoch.append(
                        (state.accuracies, state.chosen, state.detection)
                    )
                return per_epoch

        live = asyncio.run(main())
        replayed = replay_epochs([coalesce_deltas(e) for e in epochs])
        assert len(live) == len(replayed)
        for (accuracies, chosen, detection), result in zip(live, replayed):
            assert accuracies == tuple(result.fusion.accuracies)
            assert chosen == result.fusion.chosen
            assert (
                detection.decisions
                == result.fusion.final_detection().decisions
            )

    def test_stats_report_the_papers_cost(self, tmp_path, epochs):
        """``/stats`` sums each committed epoch's detection cost, the
        same sums a replay over the same partitions reports."""

        async def main():
            async with _service(tmp_path) as service:
                for epoch in epochs:
                    service.submit(epoch)
                    await service.flush()
                return service.stats()

        stats = asyncio.run(main())
        costs = [
            record.detection.cost
            for result in replay_epochs([coalesce_deltas(e) for e in epochs])
            for record in result.fusion.rounds
        ]
        assert stats["epochs_run"] == len(epochs)
        assert stats["computations"] == sum(c.computations for c in costs) > 0
        assert stats["values_examined"] == sum(c.values_examined for c in costs) > 0

    def test_every_epoch_event_names_the_snapshot_readers_land_on(
        self, tmp_path, epochs
    ):
        """After each epoch an outside reader refreshes to exactly the
        snapshot the event announced, and everything it serves — every
        observed pair's verdict, every fused truth — is the engine's
        state for that epoch."""

        async def main():
            async with _service(tmp_path) as service:
                queue = service.subscribe()
                reader, verified = None, 0
                for epoch in epochs:
                    service.submit(epoch)
                    await service.flush()
                    event, state = queue.get_nowait(), service.state
                    if reader is None:
                        reader = VerdictReader(tmp_path / "store")
                    else:
                        reader.refresh()
                    assert (
                        reader.snapshot_id
                        == event["snapshot_id"]
                        == state.snapshot_id
                    )
                    for (s1, s2), decision in state.detection.decisions.items():
                        verdict = reader.get_verdict(s1, s2)
                        assert verdict.copying == decision.copying
                        assert verdict.snapshot_id == state.snapshot_id
                        verified += 1
                    for item_id, value in state.chosen.items():
                        assert reader.get_truth(item_id).value == value
                return verified

        assert asyncio.run(main()) > 0

    def test_the_service_holds_exactly_one_live_view(self, tmp_path, epochs):
        """With the cyclic collector off, N epochs leave one snapshot
        view alive: each refresh frees the view it replaced by refcount
        (at the parent a view's LRU caches held its own bound methods,
        so every replaced view waited for a gen-2 collection)."""
        import gc
        import weakref

        async def main():
            async with _service(tmp_path) as service:
                views = []
                for epoch in epochs:
                    service.submit(epoch)
                    await service.flush()
                    service.get_verdict(0, 1)  # a served read warms the caches
                    views.append(weakref.ref(service.reader._view))
                return len(views), sum(view() is not None for view in views)

        gc.collect()
        gc.disable()
        try:
            n_views, alive = asyncio.run(main())
        finally:
            gc.enable()
        assert (n_views, alive) == (len(epochs), 1)

    def test_live_queries_answer_from_freshest_snapshot(
        self, tmp_path, world
    ):
        async def main():
            async with _service(tmp_path) as service:
                service.submit(world)
                await service.flush()
                s1, s2 = copying_pair(service.state)
                verdict = service.get_verdict(s1, s2)
                truth = service.get_truth("I00")
                explanation = service.explain_pair(s1, s2)
                return verdict, truth, explanation

        verdict, truth, explanation = asyncio.run(main())
        assert verdict is not None and verdict.copying
        assert verdict.snapshot_id == 1
        assert truth is not None and truth.snapshot_id == 1
        assert explanation.detected is not None
        assert explanation.detected.copying

    def test_unobserved_pair_explain_raises(self, tmp_path, world):
        async def main():
            async with _service(tmp_path) as service:
                service.submit(world)
                await service.flush()
                state = service.state
                names = state.dataset.source_names
                # Two honest independents with no shared scored values
                # may or may not be opened; force the unobserved case by
                # asking about a pair across disjoint item sets.
                service.submit(
                    [ClaimDelta("LONER", "ONLY-MINE", "solo-value")]
                )
                await service.flush()
                state = service.state
                loner = state.dataset.source_names.index("LONER")
                s0 = names.index("S0")
                with pytest.raises(PairNotObservedError):
                    service.explain_pair(s0, loner)
                return True

        assert asyncio.run(main())


# ----------------------------------------------------------------------
# Prepare / commit: an epoch is commit(prepare(batch))
# ----------------------------------------------------------------------


class PoisonedEngine(StreamEngine):
    """An engine whose fusion raises on any world holding a ``POISON`` source."""

    def _fuse(self, dataset):
        if "POISON" in dataset.source_names:
            raise RuntimeError("poisoned batch")
        return super()._fuse(dataset)


def replayed_state(batches):
    """The state a fresh synchronous engine reaches over ``batches``."""
    with StreamEngine() as engine:
        for batch in batches:
            engine.run_epoch(batch)
        return engine.state


def assert_same_state(live, replayed):
    """Ids, claims, fusion and verdicts equal (the snapshot id aside)."""
    for name in ("source_names", "item_names", "value_label", "claims"):
        assert getattr(live.dataset, name) == getattr(replayed.dataset, name)
    assert live.accuracies == replayed.accuracies
    assert live.probabilities == replayed.probabilities
    assert live.chosen == replayed.chosen
    assert live.detection.decisions == replayed.detection.decisions


class TestPrepareCommit:
    def test_a_discarded_prepare_leaves_no_trace(self, tmp_path, epochs):
        with StreamEngine(store=tmp_path / "store") as engine:
            engine.run_epoch(epochs[0])
            ledger, state = engine.ledger, engine.state
            snapshot, version = ledger.snapshot(), ledger.version
            builder = ledger._builder
            interned = (
                dict(builder._source_ids),
                dict(builder._item_ids),
                dict(builder._value_ids),
            )
            claims = [dict(c) for c in builder._claims]
            prepared = engine.prepare(
                [
                    ClaimDelta("NEW", "NEW-ITEM", "new-value"),
                    ClaimDelta("S0", "I00", "never-committed"),
                ]
            )
            assert prepared.state is not None  # it did fuse
            assert "NEW" in prepared.state.dataset.source_names
            assert engine.ledger is ledger and engine.state is state
            assert ledger.version == version
            assert ledger.snapshot() is snapshot
            assert (
                builder._source_ids,
                builder._item_ids,
                builder._value_ids,
            ) == interned
            assert builder._claims == claims
            assert VerdictStore(tmp_path / "store").current_id() == 1
            engine.run_epoch(epochs[1])
            live = engine.state
        assert live.snapshot_id == 2
        assert_same_state(live, replayed_state(epochs[:2]))

    def test_commit_refuses_a_stale_prepare(self, epochs):
        with StreamEngine() as engine:
            first = engine.prepare(epochs[0])
            second = engine.prepare(epochs[1])  # the same base as first
            engine.commit(first)
            state = engine.state
            with pytest.raises(ValueError, match="stale"):
                engine.commit(second)
            with pytest.raises(ValueError, match="stale"):
                engine.commit(first)  # its base is gone too
            assert engine.state is state
            assert engine.ledger is first.ledger

    def test_a_failed_prepare_changes_nothing(self, tmp_path, world):
        with PoisonedEngine(store=tmp_path / "store") as engine:
            engine.run_epoch(world)
            ledger, state = engine.ledger, engine.state
            version, snapshot = ledger.version, ledger.snapshot()
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.run_epoch([ClaimDelta("POISON", "I00", "true-0")])
            assert engine.ledger is ledger and engine.state is state
            assert ledger.version == version
            assert ledger.snapshot() is snapshot
            assert VerdictStore(tmp_path / "store").current_id() == 1

    def test_epoch_timings_add_up(self, epochs):
        with StreamEngine() as engine:
            result = engine.run_epoch(epochs[0])
        assert result.prepare_seconds > 0.0 and result.commit_seconds > 0.0
        assert result.elapsed_seconds == (
            result.prepare_seconds + result.commit_seconds
        )


# ----------------------------------------------------------------------
# The service prepares while the debounce window is open
# ----------------------------------------------------------------------


class GatedEngine(StreamEngine):
    """Records every batch it prepares; a prepare waits while ``gate``
    is clear, so a test decides when the worker frees up."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.prepared: list[list[ClaimDelta]] = []
        self.finished = 0

    def prepare(self, deltas):
        self.prepared.append(list(deltas))
        self.gate.wait(timeout=30.0)
        try:
            return super().prepare(deltas)
        finally:
            self.finished += 1


async def until(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` from the event loop until it holds."""
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "the condition never held"
        await asyncio.sleep(0.002)


def _gated(tmp_path, **kwargs) -> StreamingService:
    defaults = dict(max_batch=10_000, max_delay=30.0, debounce=0.05)
    defaults.update(kwargs)
    return StreamingService(GatedEngine(store=tmp_path / "store"), **defaults)


class TestSpeculation:
    def test_one_batch_per_window_commits_its_speculation(self, tmp_path, world):
        async def main():
            async with _gated(tmp_path) as service:
                queue = service.subscribe()
                service.submit(world)
                await service.flush()
                return service, queue.get_nowait()

        service, event = asyncio.run(main())
        assert service.engine.prepared == [world]
        stats = service.stats()
        assert stats["speculations_committed"] == 1
        assert stats["speculations_discarded"] == 0
        assert event["speculative"] is True
        assert event["elapsed_seconds"] == (
            event["prepare_seconds"] + event["commit_seconds"]
        )
        assert_same_state(service.state, replayed_state([world]))

    def test_arrival_mid_prepare_is_discarded_and_prepared_at_flush(
        self, tmp_path, world
    ):
        first, late = world[:30], world[30:]

        async def main():
            async with _gated(tmp_path, debounce=0.02) as service:
                engine = service.engine
                engine.gate.clear()
                queue = service.subscribe()
                service.submit(first)
                await until(lambda: engine.prepared)
                service.submit(late)  # the worker is busy: no second prepare
                await until(lambda: service.stats()["pending"] == 0)  # flushed
                engine.gate.set()
                await service.flush()
                return service, queue.get_nowait()

        service, event = asyncio.run(main())
        assert service.engine.prepared == [first, world]
        assert service.stats()["speculations_discarded"] == 1
        assert service.stats()["speculations_committed"] == 0
        assert event["speculative"] is False
        assert_same_state(service.state, replayed_state([world]))

    def test_a_stale_prepare_is_replaced_when_the_worker_frees_up(
        self, tmp_path, world
    ):
        first, late = world[:30], world[30:]

        async def main():
            async with _gated(tmp_path, debounce=0.5) as service:
                engine = service.engine
                engine.gate.clear()
                service.submit(first)
                await until(lambda: engine.prepared)
                service.submit(late)
                engine.gate.set()  # well inside the window
                await service.flush()
                return service

        service = asyncio.run(main())
        assert service.engine.prepared == [first, world]
        assert service.stats()["speculations_discarded"] == 1
        assert service.stats()["speculations_committed"] == 1
        assert_same_state(service.state, replayed_state([world]))

    def test_arrival_after_the_prepare_finished_re_prepares(
        self, tmp_path, world
    ):
        first, late = world[:30], world[30:]

        async def main():
            async with _gated(tmp_path, debounce=0.3) as service:
                service.submit(first)
                await until(lambda: service.engine.finished == 1)
                service.submit(late)
                await service.flush()
                return service

        service = asyncio.run(main())
        assert service.engine.prepared == [first, world]
        assert service.stats()["speculations_discarded"] == 1
        assert service.stats()["speculations_committed"] == 1
        assert service.stats()["epochs_run"] == 1
        assert_same_state(service.state, replayed_state([world]))

    def test_names_seen_only_by_a_discarded_prepare_leave_no_ids(
        self, tmp_path, world
    ):
        """A value overwritten inside the window was interned only by
        the discarded prepare; the committed ids equal the replay's."""
        transient = [
            ClaimDelta("S0", "I00", "transient-value"),
            ClaimDelta("NEWCOMER", "I00", "true-0"),
        ]
        final = [ClaimDelta("S0", "I00", "final-value")]

        async def main():
            async with _gated(tmp_path, debounce=0.3) as service:
                service.submit(world)
                await service.flush()
                service.submit(transient)
                await until(lambda: service.engine.finished == 2)
                service.submit(final)
                await service.flush()
                return service

        service = asyncio.run(main())
        assert service.stats()["speculations_discarded"] == 1
        state = service.state
        assert "transient-value" not in state.dataset.value_label
        assert_same_state(
            state,
            replayed_state([world, coalesce_deltas(transient + final)]),
        )

    def test_drain_false_drops_a_prepare_with_new_names(self, tmp_path, world):
        async def main():
            service = _gated(tmp_path)
            await service.start()
            service.submit(world)
            await service.flush()
            engine = service.engine
            snapshot, version = engine.ledger.snapshot(), engine.ledger.version
            state = engine.state
            service.submit([ClaimDelta("GHOST", "GHOST-ITEM", "ghost-value")])
            await until(lambda: engine.finished == 2)
            await service.stop(drain=False)
            return service, snapshot, version, state

        service, snapshot, version, state = asyncio.run(main())
        engine = service.engine
        assert service.stats()["speculations_discarded"] == 1
        assert engine.state is state
        assert engine.ledger.version == version
        assert engine.ledger.snapshot() is snapshot
        assert "GHOST" not in engine.ledger._builder._source_ids
        assert "GHOST-ITEM" not in engine.ledger._builder._item_ids
        later = [ClaimDelta("LATE", "I00", "true-0")]
        with engine:
            engine.run_epoch(later)
        assert_same_state(engine.state, replayed_state([world, later]))

    def test_size_trigger_discards_the_speculation(self, tmp_path, world):
        first, late = world[:30], world[30:]

        async def main():
            service = _gated(tmp_path, max_batch=len(world), debounce=30.0)
            async with service:
                queue = service.subscribe()
                service.submit(first)
                await until(lambda: service.engine.finished == 1)
                service.submit(late)  # reaches max_batch: flush now
                await asyncio.wait_for(service.flush(), timeout=10.0)
                return service, queue.get_nowait()

        service, event = asyncio.run(main())
        assert service.engine.prepared == [first, world]
        assert service.stats()["speculations_discarded"] == 1
        assert event["speculative"] is False
        assert_same_state(service.state, replayed_state([world]))

    def test_a_burst_is_prepared_once_it_pauses_for_its_longest_gap(
        self, tmp_path, world
    ):
        """Arrivals 150 / 50 / 50 ms apart inside a 400 ms debounce: the
        lone first arrival is prepared (and goes stale), the rest of the
        burst is not prepared per arrival but once, after 150 ms of quiet."""
        chunks = partition(world, 4)

        async def main():
            async with _gated(tmp_path, debounce=0.4) as service:
                queue = service.subscribe()
                for chunk, pause in zip(chunks, (0.15, 0.05, 0.05, 0.0)):
                    service.submit(chunk)
                    await asyncio.sleep(pause)
                await asyncio.wait_for(service.flush(), timeout=10.0)
                return service, queue.get_nowait()

        service, event = asyncio.run(main())
        assert service.engine.prepared == [chunks[0], world]
        assert service.stats()["speculations_discarded"] == 1
        assert service.stats()["speculations_committed"] == 1
        assert event["speculative"] is True
        assert_same_state(service.state, replayed_state([world]))

    def test_stop_drain_commits_the_prepare_in_flight(self, tmp_path, world):
        async def main():
            service = _gated(tmp_path, debounce=30.0)
            await service.start()
            service.engine.gate.clear()
            service.submit(world)
            await until(lambda: service.engine.prepared)
            stopping = asyncio.ensure_future(service.stop(drain=True))
            await asyncio.sleep(0.05)
            service.engine.gate.set()
            await stopping
            return service

        service = asyncio.run(main())
        stats = service.stats()
        assert service.engine.prepared == [world]
        assert stats["epochs_run"] == 1
        assert stats["speculations_committed"] == 1
        assert VerdictStore(tmp_path / "store").current_id() == 1
        assert_same_state(service.state, replayed_state([world]))

    def test_an_epoch_that_raises_is_dropped_and_the_loop_goes_on(
        self, tmp_path, world
    ):
        async def main():
            engine = PoisonedEngine(store=tmp_path / "store")
            async with StreamingService(engine, debounce=0.02) as service:
                service.submit(world)
                await asyncio.wait_for(service.flush(), timeout=10.0)
                first, version = service.state, engine.ledger.version
                service.submit([ClaimDelta("POISON", "I00", "true-0")])
                await asyncio.wait_for(service.flush(), timeout=10.0)
                failed = service.stats()
                assert service.state is first
                assert engine.ledger.version == version
                assert "POISON" not in engine.ledger.snapshot().source_names
                service.submit([ClaimDelta("LATE", "I00", "true-0")])
                await asyncio.wait_for(service.flush(), timeout=10.0)
                return failed, service.stats(), service.state

        failed, after, state = asyncio.run(main())
        assert failed["epochs_failed"] == 1
        assert failed["last_error"] == "RuntimeError: poisoned batch"
        assert failed["epochs_run"] == 1 and failed["pending"] == 0
        assert after["epochs_run"] == 2 and after["epochs_failed"] == 1
        assert "POISON" not in state.dataset.source_names
        assert "LATE" in state.dataset.source_names
        assert VerdictStore(tmp_path / "store").current_id() == 2

    def test_committed_epochs_replay_exactly_under_a_busy_feed(
        self, tmp_path, world
    ):
        """Three submitters, a reader and a short interpreter switch
        interval: whatever prepares go stale or race a flush, the epochs
        the engine committed are exactly a replay of their batches, and
        the state a reader sees never goes back."""
        prepared_batches: dict[int, list[ClaimDelta]] = {}
        committed: list[list[ClaimDelta]] = []

        class Recording(StreamEngine):
            def prepare(self, deltas):
                prepared = super().prepare(deltas)
                prepared_batches[id(prepared)] = list(deltas)
                return prepared

            def commit(self, prepared):
                result = super().commit(prepared)
                committed.append(prepared_batches.pop(id(prepared)))
                return result

        async def main():
            service = StreamingService(
                Recording(store=tmp_path / "store"),
                max_batch=1000,
                max_delay=0.03,
                debounce=0.004,
            )
            seen: list[int] = []

            async def submitter(chunks, seed):
                rng = random.Random(seed)
                for chunk in chunks:
                    service.submit(chunk)
                    await asyncio.sleep(rng.uniform(0.0, 0.012))

            async def reader():
                while True:
                    state = service.state
                    seen.append(state.epoch if state else 0)
                    await asyncio.sleep(0.001)

            async with service:
                watching = asyncio.ensure_future(reader())
                chunks = partition(world, 36)
                await asyncio.wait_for(
                    asyncio.gather(
                        *(submitter(chunks[k::3], k) for k in range(3))
                    ),
                    timeout=30.0,
                )
                await asyncio.wait_for(service.flush(), timeout=30.0)
                watching.cancel()
            return service, seen

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service, seen = asyncio.run(main())
        finally:
            sys.setswitchinterval(switch)
        stats = service.stats()
        assert stats["epochs_failed"] == 0
        assert stats["epochs_run"] + stats["epochs_skipped"] == len(committed) > 1
        assert stats["speculations_committed"] + stats["speculations_discarded"]
        assert sorted(
            (d.source, d.item, d.value) for batch in committed for d in batch
        ) == sorted((d.source, d.item, d.value) for d in world)
        assert seen == sorted(seen)
        assert_same_state(service.state, replayed_state(committed))
