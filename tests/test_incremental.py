"""INCREMENTAL: cross-round agreement with from-scratch detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CopyParams,
    IncrementalDetector,
    SingleRoundDetector,
    detect_hybrid,
    incremental_round,
    max_score,
    prepare_incremental,
)
from repro.core.pairspace import PairMap
from repro.core.result import PAIR_FLOAT_COLUMNS, PairDecision
from repro.fusion import FusionConfig, run_fusion
from tests.strategies import worlds
from tests.test_columns import counting_inits


def _drift(probs, rng_value, magnitude):
    """Deterministically perturb probabilities within [0.001, 0.999]."""
    out = []
    for i, p in enumerate(probs):
        delta = magnitude * (1 if (i * 2654435761 + rng_value) % 2 else -1)
        out.append(min(max(p + delta, 0.001), 0.999))
    return out


class TestSingleDrift:
    """With ``rho_value=0`` every score change is applied exactly, so the
    incremental machinery (bookkeeping, reference frames, passes, tail
    re-opening) must reproduce a from-scratch run bit-for-bit.  With the
    default rho the small-change bulk estimate is the paper's knowing
    approximation (Table VI: F ~ .98) — its quality is asserted
    statistically in TestProfiles, not pointwise here."""

    @settings(max_examples=40, deadline=None)
    @given(world=worlds(), salt=st.integers(min_value=0, max_value=10))
    def test_small_drift_matches_hybrid(self, world, salt):
        dataset, probs, accs = world
        params = CopyParams()
        _, state = prepare_incremental(dataset, probs, accs, params)
        new_probs = _drift(probs, salt, magnitude=0.01)
        inc = incremental_round(state, new_probs, accs, params, rho_value=0.0)
        fresh = detect_hybrid(dataset, new_probs, accs, params).result
        assert inc.copying_pairs() == fresh.copying_pairs()

    @settings(max_examples=25, deadline=None)
    @given(world=worlds(), salt=st.integers(min_value=0, max_value=10))
    def test_big_drift_matches_hybrid(self, world, salt):
        """Large drifts (tail re-opening territory) must still agree."""
        dataset, probs, accs = world
        params = CopyParams()
        _, state = prepare_incremental(dataset, probs, accs, params)
        new_probs = _drift(probs, salt, magnitude=0.4)
        inc = incremental_round(state, new_probs, accs, params, rho_value=0.0)
        fresh = detect_hybrid(dataset, new_probs, accs, params).result
        assert inc.copying_pairs() == fresh.copying_pairs()

    @settings(max_examples=25, deadline=None)
    @given(world=worlds())
    def test_accuracy_refresh_matches_hybrid(self, world):
        """A big accuracy change triggers full pair recomputation.

        Every source drifts by exactly 0.3 >= rho_accuracy (toward the
        middle of the range — the earlier ``min(a + 0.3, 0.99)`` clamp
        silently shrank the drift below rho for accurate sources,
        landing in the paper's keep-the-old-verdict approximation and
        over-asserting; reproduced on the pristine seed).  The real
        guarantee is per *booked* pair: each is recomputed exactly in
        pass 3 and must carry the from-scratch verdict.  A from-scratch
        run may additionally open pairs the preparation index's tail
        bound had excluded (entry scores move with accuracies, and
        accuracy refreshes do not re-open tail pairs — only value-drift
        does); conversely a pair booked under the old accuracies may be
        tail-skipped by the fresh index, which proves it independent."""
        dataset, probs, accs = world
        params = CopyParams()
        _, state = prepare_incremental(dataset, probs, accs, params)
        new_accs = [a + 0.3 if a <= 0.6 else a - 0.3 for a in accs]
        inc = incremental_round(state, probs, new_accs, params)
        stats = state.history[-1]
        assert stats.done_pass3 == stats.pairs_total + stats.reopened_pairs
        fresh = detect_hybrid(dataset, probs, new_accs, params).result
        for pair, decision in inc.decisions.items():
            fresh_decision = fresh.decisions.get(pair)
            if fresh_decision is not None:
                assert decision.copying == fresh_decision.copying
            else:
                assert not decision.copying

    @settings(max_examples=25, deadline=None)
    @given(world=worlds())
    def test_no_change_confirms_everything_in_pass1(self, world):
        dataset, probs, accs = world
        params = CopyParams()
        _, state = prepare_incremental(dataset, probs, accs, params)
        inc = incremental_round(state, probs, accs, params)
        stats = state.history[-1]
        assert stats.done_pass1 == stats.pairs_total
        assert stats.flips == 0
        prep = detect_hybrid(dataset, probs, accs, params).result
        assert inc.copying_pairs() == prep.copying_pairs()


class TestMultiRound:
    @settings(max_examples=15, deadline=None)
    @given(world=worlds(max_sources=6, max_items=10))
    def test_three_rounds_of_drift(self, world):
        """Repeated incremental rounds stay in sync with fresh runs."""
        dataset, probs, accs = world
        params = CopyParams()
        _, state = prepare_incremental(dataset, probs, accs, params)
        current = probs
        for salt in (1, 2, 3):
            current = _drift(current, salt, magnitude=0.05)
            inc = incremental_round(state, current, accs, params, rho_value=0.0)
            fresh = detect_hybrid(dataset, current, accs, params).result
            assert inc.copying_pairs() == fresh.copying_pairs()


class TestWithinFusionLoop:
    def test_matches_hybrid_loop_on_example(self, example, params):
        """Full fusion with INCREMENTAL equals full fusion with HYBRID."""
        config = FusionConfig(max_rounds=8)
        hybrid = run_fusion(
            example,
            params,
            detector=SingleRoundDetector(params, method="hybrid"),
            config=config,
        )
        incremental = run_fusion(
            example, params, detector=IncrementalDetector(params), config=config
        )
        assert (
            incremental.final_detection().copying_pairs()
            == hybrid.final_detection().copying_pairs()
        )
        assert incremental.chosen == hybrid.chosen

    def test_round_stats_recorded(self, example, params):
        detector = IncrementalDetector(params)
        run_fusion(
            example, params, detector=detector, config=FusionConfig(max_rounds=6)
        )
        assert detector.state is not None
        assert len(detector.state.history) >= 1
        for stats in detector.state.history:
            assert (
                stats.done_pass1 + stats.done_pass2 + stats.done_pass3
                == stats.pairs_total
            )

    def test_example_5_1_flip(self, example, params):
        """Section V / Example 5.1: the (S0, S1) pair is judged copying in
        early rounds (both are highly accurate and share everything) and
        flips to no-copying once value probabilities firm up."""
        detector = IncrementalDetector(params)
        result = run_fusion(
            example, params, detector=detector, config=FusionConfig(max_rounds=8)
        )
        ids = {name: i for i, name in enumerate(example.source_names)}
        final = result.final_detection()
        decision = final.decision_for(ids["S0"], ids["S1"])
        assert decision is None or not decision.copying


class TestProfiles:
    @pytest.mark.parametrize("profile, scale", [("book_cs", 0.15), ("stock_1day", 0.02)])
    def test_quality_against_hybrid_on_profiles(self, params, profile, scale):
        """Table VI shape: incremental F-measure vs per-round HYBRID >= .9."""
        from repro.eval import pair_quality
        from repro.synth import make_profile

        world = make_profile(profile, scale)
        config = FusionConfig(max_rounds=8)
        hybrid = run_fusion(
            world.dataset,
            params,
            detector=SingleRoundDetector(params, method="hybrid"),
            config=config,
        )
        incremental = run_fusion(
            world.dataset, params, detector=IncrementalDetector(params), config=config
        )
        quality = pair_quality(
            hybrid.final_detection().copying_pairs(),
            incremental.final_detection().copying_pairs(),
        )
        assert quality.f_measure >= 0.9

    def test_pass1_dominates_on_profiles(self, params):
        """Table VIII: the overwhelming majority of pairs finish in pass 1."""
        from repro.synth import make_profile

        world = make_profile("stock_1day", 0.02)
        detector = IncrementalDetector(params)
        run_fusion(
            world.dataset,
            params,
            detector=detector,
            config=FusionConfig(max_rounds=8),
        )
        history = detector.state.history
        assert history, "expected at least one incremental round"
        total_p1 = sum(s.done_pass1 for s in history)
        total = sum(s.pairs_total for s in history)
        assert total_p1 / total >= 0.8


def _prefill_entry_pairs(state):
    """What ``prepare_incremental`` did before the map went on demand:
    enumerate every entry's booked pairs up front."""
    from repro.core import incremental as module

    for pos in range(len(state.entry_pairs)):
        state.entry_pairs[pos] = module._enumerate_booked_pairs(state, pos)


class _EagerIncrementalDetector(IncrementalDetector):
    """``IncrementalDetector`` with the map pre-filled after preparation."""

    def run_round(self, round_no, dataset, probabilities, accuracies):
        prepared = self.state is not None
        result = super().run_round(round_no, dataset, probabilities, accuracies)
        if not prepared and self.state is not None:
            _prefill_entry_pairs(self.state)
        return result


class TestOnDemandEntryPairs:
    """``IncrementalState.entry_pairs`` is filled the first time pass 1
    needs an entry's booked pairs — never by the preparation round.

    The map belongs to the python reference's state: the columnar numpy
    state has no entry -> pairs map to fill, so the map assertions run
    under ``backend="python"`` only, while the golden payloads are held
    to both backends."""

    @pytest.fixture(scope="class")
    def golden(self):
        import json

        from tests.make_golden_incremental import GOLDEN_PATH

        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    @pytest.fixture
    def enumerated(self, monkeypatch):
        """Entry positions handed to the enumeration helper, in call order."""
        from repro.core import incremental as module

        calls = []
        real = module._enumerate_booked_pairs

        def spy(state, pos):
            calls.append(pos)
            return real(state, pos)

        monkeypatch.setattr(module, "_enumerate_booked_pairs", spy)
        return calls

    @pytest.mark.parametrize("backend", ("python",))  # numpy: no map to fill
    def test_enumerates_only_moved_entries_once(self, enumerated, backend):
        from repro.core.incremental import _NEGLIGIBLE
        from repro.fusion import vote_probabilities
        from repro.synth import make_profile

        params = CopyParams(backend=backend)
        dataset = make_profile("stock_1day", 0.02).dataset
        probs = vote_probabilities(dataset)
        accs = [0.8] * dataset.n_sources
        _, state = prepare_incremental(dataset, probs, accs, params)
        assert enumerated == []
        assert state.entry_pairs == [None] * len(state.index.entries)

        def moved_positions(new_probs):
            scores = [
                max_score(
                    new_probs[e.value_id], [state.a_ref[s] for s in e.providers], params
                )
                for e in state.index.entries
            ]
            return [
                pos
                for pos, (now, ref) in enumerate(zip(scores, state.s_ref))
                if abs(now - ref) >= _NEGLIGIBLE
            ]

        entries = state.index.entries
        seen: list[int] = []
        # Overlapping waves of drift over every fifth / third entry; the
        # last repeats the first wave's entries and enumerates nothing.
        fresh_per_wave = []
        for stride, magnitude in ((5, 0.02), (3, 0.3), (5, 0.1)):
            drifted = list(probs)
            for entry in entries[::stride]:
                drifted[entry.value_id] = max(probs[entry.value_id] - magnitude, 0.001)
            expected = [pos for pos in moved_positions(drifted) if pos not in seen]
            del enumerated[:]
            incremental_round(state, drifted, accs, params)
            assert enumerated == expected
            seen += expected
            fresh_per_wave.append(len(expected))
        assert fresh_per_wave[0] > 0 and fresh_per_wave[1] > 0
        assert fresh_per_wave[2] == 0
        assert len(seen) == len(set(seen)) < len(entries)
        for pos, records in enumerate(state.entry_pairs):
            assert (records is not None) == (pos in seen)

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_reopened_record_moves_once_per_entry(self, golden, backend):
        """Tail re-open, then a big change on one entry whose list
        pre-dates the re-open (``ix``) and one whose list is first
        enumerated after it (``iy``)."""
        from repro.core.contribution import same_value_scores_both
        from tests.make_golden_incremental import (
            REOPEN_ROUNDS,
            reopen_probabilities,
            reopen_world,
            run_reopen,
        )

        payload, state = run_reopen(backend)
        # The parent commit's eager build, captured and re-enacted.
        assert payload == golden["reopen"]
        if backend == "python":
            eager = run_reopen(backend, after_prepare=_prefill_entry_pairs)[0]
            assert eager == payload

        dataset = reopen_world()
        position = {
            dataset.item_names[entry.item_id]: pos
            for pos, entry in enumerate(state.index.entries)
        }
        reopened = [r["stats"]["reopened_pairs"] for r in payload["rounds"][1:]]
        assert reopened == [0, 1, 0]
        record = state.records()[(0, 1)]
        if backend == "python":
            for item in ("ix", "iy"):
                assert state.entry_pairs[position[item]].count(record) == 1

        # Stop after the re-open, then apply round 3's two deltas by hand.
        params = CopyParams(backend=backend)
        _, replay = run_reopen(backend, schedule=REOPEN_ROUNDS[:2])
        before = replay.records()[(0, 1)]
        if backend == "python":
            assert replay.entry_pairs[position["iy"]] is None  # built in round 3
            assert replay.entry_pairs[position["ix"]].count(before) == 1
        fwd, bwd = before.c_base_fwd, before.c_base_bwd
        final = reopen_probabilities(dataset, REOPEN_ROUNDS[2][0])
        for pos in sorted(position[item] for item in ("ix", "iy")):
            value = replay.index.entries[pos].value_id
            a1, a2 = replay.a_ref[0], replay.a_ref[1]
            old = same_value_scores_both(replay.p_ref[pos], a1, a2, params)
            new = same_value_scores_both(final[value], a1, a2, params)
            fwd += new[0] - old[0]
            bwd += new[1] - old[1]
        assert (record.c_base_fwd, record.c_base_bwd) == (fwd, bwd)

    @pytest.mark.parametrize("profile, scale", [("stock_1day", 0.02), ("book_cs", 0.15)])
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_fusion_rounds_equal_eager_build(self, golden, backend, profile, scale):
        from tests.make_golden_incremental import run_fusion_profile

        # fusion_backend="python" feeds both detection backends bit-equal
        # inputs, so the python-pinned fixture holds the numpy state too.
        lazy, detector = run_fusion_profile(
            backend, profile, scale, fusion_backend="python"
        )
        assert len(lazy["rounds"]) >= 3
        assert lazy == golden["fusion"][profile]
        if backend == "numpy":
            return
        eager, _ = run_fusion_profile(
            backend, profile, scale,
            detector=_EagerIncrementalDetector(CopyParams(backend=backend)),
        )
        assert lazy == eager
        untouched = sum(records is None for records in detector.state.entry_pairs)
        assert 0 < untouched or profile == "book_cs"


def _result_bits(result):
    """Everything a round reports, in terms ``==`` compares bit for bit."""
    columns = result.columns()
    return (
        result.method,
        result.n_sources,
        columns.keys.tolist(),
        {
            name: getattr(columns, name).tobytes()
            for name in PAIR_FLOAT_COLUMNS + ("copying", "early")
        },
        result.cost,
        result.changed_pairs,
    )


def _lockstep(dataset, schedule, rho_value, rho_accuracy, pair_layout="auto"):
    """Drive python and numpy INCREMENTAL through ``schedule`` —
    ``(probabilities, accuracies)`` per round, the first prepares — and
    hold every round's result and the state after it to ``float.hex``
    equality.

    Returns the two states, python first."""
    from repro.conformance.engine import incremental_state_problems

    reference_params = CopyParams(backend="python")
    params = CopyParams(backend="numpy", pair_layout=pair_layout)
    (probs, accs), *rounds = schedule
    want, reference = prepare_incremental(dataset, probs, accs, reference_params)
    got, state = prepare_incremental(dataset, probs, accs, params)
    assert not isinstance(state, type(reference))
    assert _result_bits(got) == _result_bits(want)
    for round_no, (probs, accs) in enumerate(rounds, 1):
        want = incremental_round(
            reference, probs, accs, reference_params, rho_value, rho_accuracy
        )
        with counting_inits(PairDecision) as built:
            got = incremental_round(state, probs, accs, params, rho_value, rho_accuracy)
            assert _result_bits(got) == _result_bits(want), round_no
            assert incremental_state_problems(reference, state) == [], round_no
        assert isinstance(got.decisions, PairMap)
        assert built == []
    return reference, state


class TestColumnarLockstep:
    """The numpy backend's columnar ``incremental_round`` against the
    Python reference: decisions, ``changed_pairs``, cost, ``RoundStats``,
    every record column and the three reference vectors, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        world=worlds(),
        salt=st.integers(min_value=0, max_value=10),
        rho_value=st.sampled_from([0.0, 0.3, 1.0]),
        rho_accuracy=st.sampled_from([0.0, 0.01, 0.2]),
        pair_layout=st.sampled_from(["auto", "sparse"]),
    )
    def test_three_round_drift(self, world, salt, rho_value, rho_accuracy, pair_layout):
        dataset, probs, accs = world
        schedule = [(probs, accs)]
        # A small drift, a big one (tail re-open territory) with an
        # accuracy swing past every rho_accuracy, then a partial return.
        for step, (magnitude, swing) in enumerate(((0.01, 0.005), (0.4, 0.25), (0.05, 0.0))):
            probs = _drift(probs, salt + step, magnitude)
            accs = [
                min(max(a + (swing if (i + salt) % 3 else -swing), 0.02), 0.98)
                for i, a in enumerate(accs)
            ]
            schedule.append((probs, accs))
        _lockstep(dataset, schedule, rho_value, rho_accuracy, pair_layout)

    def test_zero_booked_pairs(self):
        """Two sources, one item: nothing is booked by the preparation
        round (``searchsorted`` into an empty key column), then the one
        tail pair re-opens into the empty table."""
        from repro.data import DatasetBuilder

        builder = DatasetBuilder()
        builder.add("A", "D", "v")
        builder.add("B", "D", "v")
        accs = [0.5, 0.5]
        reference, state = _lockstep(
            builder.build(), [([0.5], accs), ([0.5], accs), ([0.05], accs)], 1.0, 0.2
        )
        assert [stats.pairs_total for stats in state.history] == [0, 1]
        assert state.history[-1].reopened_pairs == 1
        assert list(state.records()) == [(0, 1)]

    def test_reopen_inserts_keys_below_and_above(self):
        """(A, B) and (E, F) share one tail value each, (C, D) a false
        one: the booked key sits between the two the re-open inserts."""
        from repro.data import DatasetBuilder

        builder = DatasetBuilder()
        for pair, item in (("AB", "t1"), ("CD", "m"), ("EF", "t2")):
            for source in pair:
                builder.add(source, item, "v")
        dataset = builder.build()
        accs = [0.5] * 6

        def probabilities(tail):
            by_item = {"t1": tail, "t2": tail, "m": 0.05}
            return [
                by_item[dataset.item_names[dataset.value_item[value]]]
                for value in range(dataset.n_values)
            ]

        schedule = [(probabilities(0.98), accs), (probabilities(0.05), accs),
                    (probabilities(0.1), accs)]
        reference, state = _lockstep(dataset, schedule, 0.0, 0.2)
        assert state.history[0].reopened_pairs == 2
        assert state.keys.tolist() == sorted(state.keys.tolist())
        assert list(state.records()) == [(0, 1), (2, 3), (4, 5)]
        assert list(reference.records()) == [(2, 3), (0, 1), (4, 5)]

    @pytest.mark.parametrize("profile, scale", [("book_cs", 0.15), ("stock_1day", 0.02)])
    def test_refresh_touching_every_source(self, profile, scale):
        """``rho_accuracy=0``: every source refreshes, every pair is
        rebuilt in pass 3 and every entry's ``s_ref`` is re-scored."""
        from repro.fusion import vote_probabilities
        from repro.synth import make_profile

        dataset = make_profile(profile, scale).dataset
        probs = vote_probabilities(dataset)
        accs = [0.8] * dataset.n_sources
        moved = [0.8 - 0.3 * (i % 3 == 0) + 0.1 * (i % 2) for i in range(len(accs))]
        _, state = _lockstep(
            dataset, [(probs, accs), (_drift(probs, 1, 0.05), moved)], 1.0, 0.0
        )
        stats = state.history[-1]
        assert stats.refresh_pairs == stats.done_pass3 == stats.pairs_total > 0
        assert state.a_ref.tolist() == moved

    def test_moved_dense_entry_straddles_a_pass1_block(self, monkeypatch):
        """A 12-incidence budget against entries of up to 15 providers:
        pass 1 expands the moved entries in several blocks, and a pair's
        big changes still land in entry order."""
        from repro.core import incremental_kernel, kernel
        from repro.fusion import vote_probabilities
        from repro.synth import make_profile

        blocks = []
        real = kernel.incidence_mass_bounds

        def spy(counts):
            bounds = real(counts)
            blocks.append((int((counts * (counts - 1) // 2).max(initial=0)), bounds))
            return bounds

        monkeypatch.setattr(kernel, "EPOCH_INCIDENCE_BUDGET", 12)
        monkeypatch.setattr(incremental_kernel, "incidence_mass_bounds", spy)
        dataset = make_profile("stock_1day", 0.02).dataset
        probs = vote_probabilities(dataset)
        accs = [0.8] * dataset.n_sources
        drifted = [max(p - 0.3, 0.001) for p in probs]
        _, state = _lockstep(dataset, [(probs, accs), (drifted, accs)], 0.0, 0.2)
        assert state.history[-1].entries_big > 0
        heaviest, bounds = blocks[-1]  # the numpy round's pass-1 call
        assert heaviest > 12 and len(bounds) > 3

    def test_pass2_resolutions_along_a_fusion_trajectory(self):
        """``book_full``: the profile whose cold-start rounds resolve
        pairs in pass 2 (absorbed after-entries, decision point moved to
        the end) beside refreshes and pass-3 rebuilds."""
        from repro.fusion.pipeline import fusion_steps
        from repro.synth import make_profile

        dataset = make_profile("book_full", 0.03).dataset
        params = CopyParams(backend="python")
        value_probs, update_accs = fusion_steps(dataset, params, FusionConfig())
        detector = IncrementalDetector(params)
        accs = [0.8] * dataset.n_sources
        probs, _ = value_probs(accs)
        schedule = []
        for round_no in range(1, 6):
            schedule.append((probs, accs))
            detection = detector.run_round(round_no, dataset, probs, accs)
            probs, _ = value_probs(accs, detection)
            accs = update_accs(probs)
        # Round 2 prepares (the detector's default), rounds 3-5 patch.
        _, state = _lockstep(dataset, schedule[1:], 1.0, 0.2)
        assert state.history == detector.state.history
        assert sum(stats.done_pass2 for stats in state.history) > 0
        assert sum(stats.refresh_pairs for stats in state.history) > 0

    def test_rho_value_zero_without_tail_growth(self):
        """Probabilities firm up, so the tail's score sum shrinks: every
        moved entry is a big change, nothing re-opens and the re-open
        level stays where the preparation round put it."""
        from repro.fusion import vote_probabilities
        from repro.synth import make_profile

        params = CopyParams()
        dataset = make_profile("book_cs", 0.15).dataset
        probs = vote_probabilities(dataset)
        accs = [0.8] * dataset.n_sources
        firmer = [min(p + 0.2, 0.999) for p in probs]
        _, state = _lockstep(dataset, [(probs, accs), (firmer, accs)], 0.0, 0.2)
        stats = state.history[-1]
        assert stats.entries_big > 0 and stats.entries_small == 0
        assert stats.reopened_pairs == 0
        assert state.reopen_level == params.theta_ind
