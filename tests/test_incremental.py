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
    prepare_incremental,
)
from repro.fusion import FusionConfig, run_fusion
from tests.strategies import worlds


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
    needs an entry's booked pairs — never by the preparation round."""

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

    @pytest.mark.parametrize("backend", ("python", "numpy"))
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
            scores = state.index.rescore(new_probs, state.a_ref, params)
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
        assert run_reopen(backend, after_prepare=_prefill_entry_pairs)[0] == payload

        dataset = reopen_world()
        position = {
            dataset.item_names[entry.item_id]: pos
            for pos, entry in enumerate(state.index.entries)
        }
        reopened = [r["stats"]["reopened_pairs"] for r in payload["rounds"][1:]]
        assert reopened == [0, 1, 0]
        record = state.pairs[(0, 1)]
        for item in ("ix", "iy"):
            assert state.entry_pairs[position[item]].count(record) == 1

        # Stop after the re-open, then apply round 3's two deltas by hand.
        params = CopyParams(backend=backend)
        _, replay = run_reopen(backend, schedule=REOPEN_ROUNDS[:2])
        assert replay.entry_pairs[position["iy"]] is None  # built in round 3
        assert replay.entry_pairs[position["ix"]].count(replay.pairs[(0, 1)]) == 1
        before = replay.pairs[(0, 1)]
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

        lazy, detector = run_fusion_profile(backend, profile, scale)
        eager, _ = run_fusion_profile(
            backend, profile, scale,
            detector=_EagerIncrementalDetector(CopyParams(backend=backend)),
        )
        assert lazy == eager
        assert len(lazy["rounds"]) >= 3
        if backend == "python":  # the fixture pins the reference backend
            assert lazy == golden["fusion"][profile]
        untouched = sum(records is None for records in detector.state.entry_pairs)
        assert 0 < untouched or profile == "book_cs"
