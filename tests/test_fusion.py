"""Truth finding: VOTE, ACCU probabilities, ACCUCOPY discounting, the loop."""

import weakref

import pytest
from hypothesis import given, settings

from repro.core import (
    CopyParams,
    IncrementalDetector,
    SingleRoundDetector,
    detect_pairwise,
)
from repro.core.params import ACCURACY_CLAMP
from repro.data import DatasetBuilder, motivating_example, motivating_gold
from repro.fusion import (
    CredibilityModel,
    FusionConfig,
    accuracy_score,
    choose_values,
    run_fusion,
    update_accuracies,
    value_probabilities,
    vote,
    vote_probabilities,
)
from repro.streaming import StreamEngine
from repro.synth import book_cs
from tests.rounds import KeepRounds
from tests.strategies import worlds


def _simple_dataset():
    b = DatasetBuilder()
    b.add("good", "D", "true-v")
    b.add("good2", "D", "true-v")
    b.add("bad", "D", "false-v")
    return b.build()


class TestVote:
    def test_majority_wins(self):
        ds = _simple_dataset()
        chosen = vote(ds)
        item = ds.item_names.index("D")
        assert ds.value_label[chosen[item]] == "true-v"

    def test_tie_breaks_deterministically(self):
        b = DatasetBuilder()
        b.add("a", "D", "x")
        b.add("b", "D", "y")
        ds = b.build()
        assert vote(ds) == vote(ds)

    def test_vote_probabilities_sum_to_one_per_item(self):
        ds = motivating_example()
        probs = vote_probabilities(ds)
        for values in ds.item_value_table():
            total = sum(probs[v] for v in values)
            assert total == pytest.approx(1.0)


class TestAccuracyScore:
    def test_monotone(self, params):
        assert accuracy_score(0.9, params) > accuracy_score(0.5, params)

    def test_clamped_extremes_finite(self, params):
        assert accuracy_score(1.0, params) < float("inf")
        assert accuracy_score(0.0, params) > float("-inf")


class TestValueProbabilities:
    def test_higher_accuracy_sources_win(self, params):
        ds = _simple_dataset()
        probs = value_probabilities(ds, [0.9, 0.9, 0.3], params)
        true_id = ds.value_label.index("true-v")
        false_id = ds.value_label.index("false-v")
        assert probs[true_id] > probs[false_id]

    def test_minority_of_accurate_sources_beats_majority_of_bad(self, params):
        b = DatasetBuilder()
        b.add("expert", "D", "right")
        b.add("junk1", "D", "wrong")
        b.add("junk2", "D", "wrong")
        ds = b.build()
        probs = value_probabilities(ds, [0.99, 0.2, 0.2], params)
        assert probs[ds.value_label.index("right")] > probs[
            ds.value_label.index("wrong")
        ]

    @settings(max_examples=40, deadline=None)
    @given(world=worlds())
    def test_probabilities_valid_and_bounded(self, world):
        dataset, _, accs = world
        params = CopyParams()
        probs = value_probabilities(dataset, accs, params)
        assert all(0.0 <= p <= 1.0 for p in probs)
        for values in dataset.item_value_table():
            total = sum(probs[v] for v in values)
            assert total <= 1.0 + 1e-9

    def test_copy_discount_weakens_copied_value(self, params):
        """ACCUCOPY: a false value shared by copiers loses its vote mass."""
        b = DatasetBuilder()
        b.add("orig", "D", "wrong")
        b.add("copier", "D", "wrong")
        b.add("honest1", "D", "right")
        b.add("honest2", "D", "right")
        ds = b.build()
        accs = [0.7, 0.7, 0.7, 0.7]
        plain = value_probabilities(ds, accs, params)
        detection = detect_pairwise(ds, plain, accs, params)
        # Force a strong copy verdict for (orig, copier) by lowering the
        # shared value's probability.
        probs_low = list(plain)
        probs_low[ds.value_label.index("wrong")] = 0.02
        detection = detect_pairwise(ds, probs_low, accs, params)
        discounted = value_probabilities(ds, accs, params, detection=detection)
        wrong = ds.value_label.index("wrong")
        assert discounted[wrong] <= plain[wrong] + 1e-12


class TestUpdateAccuracies:
    def test_mean_of_claimed_probabilities(self, params):
        ds = _simple_dataset()
        probs = [0.9, 0.1]  # true-v, false-v
        accs = update_accuracies(ds, probs, params)
        assert accs[0] == pytest.approx(0.9)
        assert accs[2] == pytest.approx(0.1)

    def test_sources_without_claims_neutral(self, params):
        b = DatasetBuilder()
        b.ensure_source("empty")
        b.add("s", "D", "v")
        ds = b.build()
        accs = update_accuracies(ds, [0.7], params)
        assert accs[0] == 0.5

    def test_clamped(self, params):
        ds = _simple_dataset()
        accs = update_accuracies(ds, [1.0, 0.0], params)
        assert all(ACCURACY_CLAMP <= a <= 1 - ACCURACY_CLAMP for a in accs)


class TestChooseValues:
    def test_picks_argmax(self):
        ds = _simple_dataset()
        chosen = choose_values(ds, [0.3, 0.6])
        item = ds.item_names.index("D")
        assert ds.value_label[chosen[item]] == "false-v"


class TestFusionLoop:
    def test_motivating_example_recovers_truth(self, params):
        """The loop reproduces Table II's converged state: planted
        accuracies and all five intended truths."""
        ds = motivating_example()
        detector = SingleRoundDetector(params, method="pairwise")
        result = run_fusion(ds, params, detector=detector)
        gold = motivating_gold()
        assert gold.accuracy_of(ds, result.chosen) == 1.0
        by_name = dict(zip(ds.source_names, result.accuracies))
        assert by_name["S0"] == pytest.approx(0.99, abs=0.02)
        assert by_name["S2"] == pytest.approx(0.2, abs=0.05)
        assert by_name["S6"] == pytest.approx(0.01, abs=0.02)

    def test_copying_detected_in_loop(self, params):
        ds = motivating_example()
        detector = SingleRoundDetector(params, method="index")
        result = run_fusion(ds, params, detector=detector)
        names = {
            frozenset({ds.source_names[a], ds.source_names[b]})
            for a, b in result.final_detection().copying_pairs()
        }
        from repro.data import MOTIVATING_COPY_PAIRS

        assert names == set(MOTIVATING_COPY_PAIRS)

    def test_without_detector_copiers_mislead(self, params):
        """ACCU alone (no copy detection) trusts the copier block more."""
        ds = motivating_example()
        plain = run_fusion(ds, params, detector=None)
        aware = run_fusion(
            ds, params, detector=SingleRoundDetector(params, method="pairwise")
        )
        gold = motivating_gold()
        assert gold.accuracy_of(ds, aware.chosen) >= gold.accuracy_of(ds, plain.chosen)

    def test_convergence_flag(self, params):
        ds = motivating_example()
        result = run_fusion(
            ds,
            params,
            detector=None,
            config=FusionConfig(max_rounds=1, min_rounds=1),
        )
        assert result.n_rounds == 1

    def test_round_records(self, params):
        ds = motivating_example()
        detector = SingleRoundDetector(params, method="hybrid")
        result = run_fusion(ds, params, detector=detector)
        assert [r.round_no for r in result.rounds] == list(
            range(1, result.n_rounds + 1)
        )
        assert result.detection_seconds >= 0.0
        assert result.total_computations > 0


class TestFusionConfigRules:
    """A config's rules run when it is built, so nothing downstream (a
    streaming engine, the CLI, a fusion run) holds a broken one."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_rounds": 0},
            {"fusion_method": "bogus"},
            {"ds_uncertainty": 0.2},
            {"fusion_method": "ds", "ds_uncertainty": 1.0},
            {"credibility": CredibilityModel.flat()},
        ],
    )
    def test_a_broken_config_raises_when_built(self, fields):
        with pytest.raises(ValueError):
            FusionConfig(**fields)

    def test_a_stream_engine_never_holds_a_broken_config(self):
        with pytest.raises(ValueError, match="fusion_method"):
            StreamEngine(config=FusionConfig(fusion_method="bogus"))

    def test_zero_rounds_is_refused_by_name(self, params):
        with pytest.raises(ValueError, match="max_rounds"):
            run_fusion(
                motivating_example(), params, config=FusionConfig(max_rounds=0)
            )


class _WatchedTables(KeepRounds):
    """Keeps a weak reference to each round's verdict table, not the
    result, and notes, as each round starts, which earlier tables live."""

    def __init__(self, detector):
        super().__init__(detector)
        self.alive_at_start: list[list[int]] = []

    def alive(self) -> list[int]:
        """The round numbers whose table is still referenced."""
        return [n for n, table in enumerate(self.results, 1) if table() is not None]

    def run_round(self, round_no, dataset, probabilities, accuracies):
        self.alive_at_start.append(self.alive())
        result = self.detector.run_round(round_no, dataset, probabilities, accuracies)
        self.results.append(weakref.ref(result.columns()))
        return result


class TestOneVerdictTable:
    """A fusion run keeps one verdict table, the final round's: every
    ``RoundRecord`` carries a summary, and the loop drops a round's table
    before the next round scans."""

    ROUNDS = FusionConfig(max_rounds=4, min_rounds=4, tolerance=0.0)

    @pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize(
        "backend, method",
        [("numpy", "index"), ("numpy", "hybrid"), ("python", "pairwise"),
         ("numpy", "incremental"), ("python", "incremental")],
    )
    def test_only_the_final_table_outlives_the_run(
        self, backend, method, store, tmp_path
    ):
        params = CopyParams(backend=backend)
        detector = _WatchedTables(
            IncrementalDetector(params) if method == "incremental"
            else SingleRoundDetector(params, method)
        )
        fusion = run_fusion(
            book_cs(scale=0.06).dataset, params, detector, self.ROUNDS,
            snapshot_store=tmp_path if store else None,
        )
        assert fusion.n_rounds == len(detector.results) == 4
        assert detector.alive() == [4]
        assert detector.results[-1]() is fusion.final_detection().columns()
        final, summary = fusion.final_detection(), fusion.rounds[-1].detection
        assert (summary.method, summary.cost) == (final.method, final.cost)
        assert summary.n_pairs == len(final.decisions)

    @pytest.mark.parametrize("method", ["index", "hybrid"])
    def test_a_rounds_table_is_gone_before_the_next_round_scans(self, method):
        """No store, so no publisher baseline: when round N+1 starts,
        no earlier round's table is referenced."""
        params = CopyParams(backend="numpy")
        detector = _WatchedTables(SingleRoundDetector(params, method))
        run_fusion(book_cs(scale=0.06).dataset, params, detector, self.ROUNDS)
        assert detector.alive_at_start == [[]] * 4
