"""Dempster-Shafer fusion: the combination math, credibility priors,
conflict surfacing, and the config-validation side-effect contract."""

import json
from dataclasses import replace

import pytest

from repro.conformance import generate_world
from repro.conformance.engine import CaseConfig, run_case
from repro.core import CopyParams, SingleRoundDetector
from repro.core.explain import explain_pair
from repro.data import ClaimDelta, DatasetBuilder, motivating_example
from repro.fusion import (
    CredibilityModel,
    FusionConfig,
    TotalConflictError,
    choose_values,
    ds_value_probabilities,
    run_fusion,
    value_probabilities,
    vote,
    vote_probabilities,
)
from repro.fusion.pipeline import INITIAL_ACCURACY
from repro.fusion.ds import MAX_SUPPORT, ds_value_probabilities_columnar, support_masses
from repro.streaming import StreamEngine


def _world_dataset(case_index: int, seed: int = 977):
    dataset, _, accuracies = generate_world(case_index, seed).materialize()
    return dataset, accuracies


class TestSupportMasses:
    def test_bounded_and_monotone_in_accuracy(self, params):
        masses = support_masses([0.2, 0.5, 0.8, 0.95], params)
        assert all(0.0 <= w <= MAX_SUPPORT for w in masses)
        assert masses == sorted(masses)

    def test_uncertainty_shrinks_support(self, params):
        base = support_masses([0.8], params)[0]
        reserved = support_masses([0.8], params, uncertainty=0.5)[0]
        assert reserved == pytest.approx(base * 0.5)

    def test_credibility_scales_and_clamps(self, params):
        base = support_masses([0.8], params)[0]
        half = support_masses([0.8], params, credibility=[0.5])[0]
        assert half == pytest.approx(base * 0.5)
        boosted = support_masses([0.8], params, credibility=[1e9])[0]
        assert boosted == MAX_SUPPORT

    def test_odds_below_one_supports_nothing(self):
        # With n = 1, accuracy 0.4 gives odds 2/3 < 1: no support.
        params = CopyParams(n=1)
        assert support_masses([0.4], params) == [0.0]


class TestDSCombination:
    @pytest.mark.parametrize("case_index", range(8))
    def test_mass_normalization_and_conflict_range(self, params, case_index):
        dataset, accuracies = _world_dataset(case_index)
        round_ = ds_value_probabilities(dataset, accuracies, params)
        for item_id, values in enumerate(dataset.item_value_table()):
            if not values:
                continue
            total = sum(round_.probabilities[v] for v in values)
            assert 0.0 < total <= 1.0 + 1e-12
            assert 0.0 <= round_.conflict[item_id] <= 1.0
        assert set(round_.conflict) == {
            i for i, vs in enumerate(dataset.item_value_table()) if vs
        }

    @pytest.mark.parametrize("case_index", range(8))
    def test_columnar_lockstep(self, params, case_index):
        dataset, accuracies = _world_dataset(case_index)
        reference = ds_value_probabilities(dataset, accuracies, params)
        columnar = ds_value_probabilities_columnar(
            dataset.columns, accuracies, params
        )
        assert set(reference.conflict) == set(columnar.conflict)
        for item_id, k in reference.conflict.items():
            assert columnar.conflict[item_id] == pytest.approx(k, abs=1e-9)
        for ref, col in zip(reference.probabilities, columnar.probabilities):
            assert float(col) == pytest.approx(ref, abs=1e-9)
        assert choose_values(dataset, reference.probabilities) == choose_values(
            dataset, [float(p) for p in columnar.probabilities]
        )

    @pytest.mark.parametrize("case_index", range(8))
    def test_flat_ds_ranks_values_like_accu(self, params, case_index):
        # The parity construction the docs promise: flat credibility,
        # zero uncertainty, no detection -> per-item value ranking
        # identical to ACCU's (and therefore the same fused truths).
        dataset, accuracies = _world_dataset(case_index)
        ds = ds_value_probabilities(dataset, accuracies, params)
        accu = value_probabilities(dataset, accuracies, params)
        for values in dataset.item_value_table():
            ds_rank = sorted(values, key=lambda v: (ds.probabilities[v], -v))
            accu_rank = sorted(values, key=lambda v: (accu[v], -v))
            assert ds_rank == accu_rank

    def test_copier_discount_reduces_copied_support(self, params):
        # Two sources claiming the same value: with a detection result
        # the later provider's mass is deflated, so the value's pooled
        # probability drops below the independent combination.
        dataset = motivating_example()
        accuracies = [0.8] * dataset.n_sources
        detection = SingleRoundDetector(params, "pairwise").run_round(
            1, dataset, vote_probabilities(dataset), accuracies
        )
        independent = ds_value_probabilities(dataset, accuracies, params)
        discounted = ds_value_probabilities(
            dataset, accuracies, params, detection=detection
        )
        assert any(
            d < i - 1e-12
            for d, i in zip(discounted.probabilities, independent.probabilities)
        )

    def test_total_conflict_raises_in_both_implementations(self, params):
        # Dozens of maximally-boosted witnesses split over two values:
        # each side's support clamps to MAX_SUPPORT, the combined mass
        # underflows to exact float zero, and both implementations must
        # refuse rather than renormalise noise.
        b = DatasetBuilder()
        for s in range(40):
            b.add(f"x{s}", "D", "x")
        for s in range(40):
            b.add(f"y{s}", "D", "y")
        dataset = b.build()
        accuracies = [0.99] * 80
        credibility = [100.0] * 80
        with pytest.raises(TotalConflictError) as exc:
            ds_value_probabilities(
                dataset, accuracies, params, credibility=credibility
            )
        assert exc.value.item_id == 0
        assert exc.value.total_mass == 0.0
        with pytest.raises(TotalConflictError) as exc_np:
            ds_value_probabilities_columnar(
                dataset.columns,
                accuracies,
                params,
                credibility=credibility,
            )
        assert exc_np.value.item_id == 0
        assert exc_np.value.total_mass == 0.0

    def test_dense_conflict_is_diagnosed_not_raised(self, params):
        # Zadeh's observation: a dozen confident providers split across
        # two values push K within ~1e-19 of 1 while the mass ratios
        # stay perfectly well-conditioned — that must NOT raise.
        b = DatasetBuilder()
        for s in range(7):
            b.add(f"x{s}", "D", "x")
        for s in range(6):
            b.add(f"y{s}", "D", "y")
        dataset = b.build()
        round_ = ds_value_probabilities(
            dataset, [0.97] * 13, params, credibility=[2.0] * 13
        )
        assert round_.conflict[0] > 0.999
        x_id, y_id = 0, 1
        assert round_.probabilities[x_id] > round_.probabilities[y_id]


class TestRunFusionDS:
    def test_end_to_end_matches_accu_truths_and_surfaces_conflict(self, params):
        dataset, _ = _world_dataset(2)
        detector = SingleRoundDetector(params, "pairwise")
        accu = run_fusion(dataset, params, detector, FusionConfig(max_rounds=4))
        ds = run_fusion(
            dataset,
            params,
            SingleRoundDetector(params, "pairwise"),
            FusionConfig(max_rounds=4, fusion_method="ds"),
        )
        assert ds.chosen == accu.chosen
        assert accu.final_conflict() is None and accu.credibility is None
        conflict = ds.final_conflict()
        assert conflict and all(0.0 <= k <= 1.0 for k in conflict.values())
        assert ds.credibility == [1.0] * dataset.n_sources
        for record in ds.rounds:
            assert record.conflict is not None

    def test_python_and_numpy_backends_agree(self):
        dataset, _ = _world_dataset(3)
        cfg = FusionConfig(max_rounds=4, fusion_method="ds")
        py = run_fusion(
            dataset, CopyParams(backend="python"), config=cfg
        )
        np_ = run_fusion(dataset, CopyParams(backend="numpy"), config=cfg)
        assert py.chosen == np_.chosen
        for a, b in zip(py.accuracies, np_.accuracies):
            assert b == pytest.approx(a, abs=1e-9)
        for item, k in py.final_conflict().items():
            assert np_.final_conflict()[item] == pytest.approx(k, abs=1e-9)

    def test_invalid_config_leaves_store_untouched(self, params, tmp_path):
        # The regression this PR fixes: every config check must run
        # before the snapshot publisher mkdirs the store directory.
        dataset = motivating_example()
        store = tmp_path / "store"
        bad = FusionConfig(initial_accuracies=[0.8])  # wrong length
        with pytest.raises(ValueError):
            run_fusion(dataset, params, config=bad, snapshot_store=store)
        assert not store.exists()
        with pytest.raises(ValueError):
            run_fusion(
                dataset,
                params,
                config=FusionConfig(credibility=CredibilityModel.flat()),
                snapshot_store=store,
            )
        assert not store.exists()
        with pytest.raises(ValueError):
            run_fusion(
                dataset,
                params,
                config=FusionConfig(ds_uncertainty=0.2),
                snapshot_store=store,
            )
        assert not store.exists()
        with pytest.raises(ValueError):
            run_fusion(
                dataset,
                params,
                config=FusionConfig(fusion_method="votes"),
                snapshot_store=store,
            )
        assert not store.exists()

    def test_ds_uncertainty_out_of_range_rejected(self, params):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                run_fusion(
                    motivating_example(),
                    params,
                    config=FusionConfig(fusion_method="ds", ds_uncertainty=bad),
                )


class TestConformanceDSAxis:
    @pytest.mark.parametrize("case_index", range(4))
    def test_lockstep_grid_cases_conform(self, case_index):
        world = generate_world(case_index, seed=20260808)
        outcome = run_case(
            world,
            CaseConfig("fusion", "none", fusion_method="ds", rounds=3),
        )
        assert not outcome.diverged, outcome.divergences

    def test_python_candidate_against_reference(self):
        world = generate_world(1, seed=20260808)
        outcome = run_case(
            world,
            CaseConfig(
                "fusion",
                "none",
                backend="python",
                fusion_backend="python",
                fusion_method="ds",
                rounds=3,
            ),
        )
        assert not outcome.diverged, outcome.divergences


class TestCredibilityModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CredibilityModel(priors={"a": 0.0})
        with pytest.raises(ValueError):
            CredibilityModel(priors={"a": float("nan")})
        with pytest.raises(ValueError):
            CredibilityModel(default=-1.0)

    def test_flat_is_flat_and_neutral(self):
        model = CredibilityModel.flat()
        assert model.effective(["a", "b"]) == [1.0, 1.0]

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "priors.json"
        path.write_text(json.dumps({"wire": 3.0, "*": 0.5}), encoding="utf-8")
        model = CredibilityModel.from_file(path)
        assert model.prior_for(name="wire") == 3.0
        assert model.prior_for(name="blog") == 0.5

    def test_from_file_csv(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text(
            "# trusted feeds\nwire,3.0\n*,0.25\n", encoding="utf-8"
        )
        model = CredibilityModel.from_file(path)
        assert model.prior_for(name="wire") == 3.0
        assert model.default == 0.25

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ValueError):
            CredibilityModel.from_file(tmp_path / "missing.json")
        bad_rows = tmp_path / "bad.csv"
        bad_rows.write_text("just-a-name\n", encoding="utf-8")
        with pytest.raises(ValueError):
            CredibilityModel.from_file(bad_rows)
        bad_json = tmp_path / "list.json"
        bad_json.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            CredibilityModel.from_file(bad_json)
        bad_weight = tmp_path / "weight.csv"
        bad_weight.write_text("wire,lots\n", encoding="utf-8")
        with pytest.raises(ValueError):
            CredibilityModel.from_file(bad_weight)

    def test_effective_is_the_weight_table(self):
        model = CredibilityModel(priors={"a": 2.0, 1: 0.5}, default=0.75)
        assert model.effective(["a", "b", "c"]) == [2.0, 0.5, 0.75]


class TestVoteContract:
    def test_zero_provider_value_cannot_win(self):
        from repro.data import ClaimLedger

        ledger = ClaimLedger()
        ledger.apply(
            [
                ClaimDelta("a", "D", "x"),
                ClaimDelta("b", "D", "y"),
                ClaimDelta("c", "D", "y"),
            ]
        )
        # "a" re-reports: value "x" loses its only provider.
        ledger.apply([ClaimDelta("a", "D", "y")])
        dataset = ledger.snapshot()
        chosen = vote(dataset)
        item = dataset.item_names.index("D")
        assert dataset.value_label[chosen[item]] == "y"
        probs = vote_probabilities(dataset)
        x_id = next(
            v
            for v in dataset.item_value_table()[item]
            if dataset.value_label[v] == "x"
        )
        assert probs[x_id] == 0.0

    def test_tie_breaks_to_first_claimed_value(self):
        b = DatasetBuilder()
        b.add("s1", "D", "later-alphabetically-z")
        b.add("s2", "D", "a-but-claimed-second")
        dataset = b.build()
        chosen = vote(dataset)
        item = dataset.item_names.index("D")
        assert dataset.value_label[chosen[item]] == "later-alphabetically-z"


class TestStreamingDS:
    def _seed_deltas(self):
        # A small planted-copying world: C0 clones S0 verbatim, so the
        # (S0, C0) pair is always observed by the epoch's detector.
        import random

        rng = random.Random(11)
        deltas = []
        claims_of_s0 = {}
        for s in range(4):
            for i in range(10):
                item = f"I{i:02d}"
                value = (
                    f"true-{i}"
                    if rng.random() < 0.7
                    else f"wrong-{i}-{rng.randint(0, 1)}"
                )
                deltas.append(ClaimDelta(f"S{s}", item, value))
                if s == 0:
                    claims_of_s0[item] = value
        for i in range(10):
            item = f"I{i:02d}"
            deltas.append(ClaimDelta("C0", item, claims_of_s0[item]))
        return deltas

    def test_grown_source_starts_at_initial_accuracy(self, monkeypatch):
        # A source appearing mid-stream starts where a cold run starts
        # every source, whatever its prior: the prior already weights
        # its masses in every round, so scaling the start counts it twice.
        import repro.streaming.engine as engine_module

        starts = []

        def recording(dataset, params, detector, config):
            starts.append(config.initial_accuracies)
            return run_fusion(dataset, params, detector, config)

        monkeypatch.setattr(engine_module, "run_fusion", recording)
        params = CopyParams(backend="python")
        for prior in (0.6, 2.5):
            cred = CredibilityModel(priors={"late": prior})
            cfg = FusionConfig(fusion_method="ds", credibility=cred, max_rounds=4)
            engine = StreamEngine(params=params, config=cfg)
            engine.run_epoch(self._seed_deltas())
            previous = list(engine.state.accuracies)
            engine.run_epoch([ClaimDelta("late", "I00", "true-0")])

            assert starts[-2] is None  # the first epoch is a cold run
            assert list(starts[-1]) == previous + [INITIAL_ACCURACY]
            manual = run_fusion(
                engine.ledger.snapshot(),
                params,
                SingleRoundDetector(params, "index"),
                replace(cfg, initial_accuracies=previous + [INITIAL_ACCURACY]),
            )
            assert engine.state.accuracies == tuple(manual.accuracies)
            assert engine.state.conflict == manual.final_conflict()

    def test_epoch_state_carries_conflict_and_credibility(self):
        cfg = FusionConfig(fusion_method="ds", max_rounds=4)
        engine = StreamEngine(params=CopyParams(backend="python"), config=cfg)
        engine.run_epoch(self._seed_deltas())
        state = engine.state
        assert state.conflict and all(
            0.0 <= k <= 1.0 for k in state.conflict.values()
        )
        assert state.credibility == (1.0,) * state.dataset.n_sources
        explanation = state.explain(0, 4)  # S0 and its verbatim copier C0
        assert explanation.credibility_a == 1.0
        assert explanation.credibility_b == 1.0
        assert "credibility:" in explanation.render()

    def test_accu_epoch_state_has_no_ds_surface(self):
        engine = StreamEngine(params=CopyParams(backend="python"))
        engine.run_epoch(self._seed_deltas())
        assert engine.state.conflict is None
        assert engine.state.credibility is None


class TestExplainDS:
    def test_conflict_and_credibility_annotations(self, params):
        dataset = motivating_example()
        result = run_fusion(
            dataset,
            params,
            SingleRoundDetector(params, "pairwise"),
            FusionConfig(max_rounds=4, fusion_method="ds"),
        )
        explanation = explain_pair(
            dataset,
            0,
            1,
            result.probabilities,
            result.accuracies,
            params,
            result=result.final_detection(),
            credibility=result.credibility,
            conflict=result.final_conflict(),
        )
        assert explanation.credibility_a == 1.0
        assert explanation.credibility_b == 1.0
        assert all(ev.conflict is not None for ev in explanation.items)
        rendered = explanation.render()
        assert "credibility:" in rendered
        assert "[K=" in rendered

    def test_without_ds_inputs_stays_clean(self, params):
        dataset = motivating_example()
        result = run_fusion(dataset, params, SingleRoundDetector(params, "pairwise"))
        explanation = explain_pair(
            dataset, 0, 1, result.probabilities, result.accuracies, params
        )
        assert explanation.credibility_a is None
        assert all(ev.conflict is None for ev in explanation.items)
        assert "[K=" not in explanation.render()


class TestCLIFusionDS:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        from repro.cli import main

        out = tmp_path_factory.mktemp("cli_ds_fusion")
        assert (
            main(
                [
                    "generate",
                    "book_cs",
                    "--scale",
                    "0.06",
                    "--seed",
                    "9",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        return out

    def test_fuse_ds_reports_conflict(self, dataset_dir, capsys):
        from repro.cli import main

        code = main(
            [
                "fuse",
                str(dataset_dir / "claims.csv"),
                "--fusion",
                "ds",
                "--max-rounds",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DS conflict:" in out
        assert "mean K" in out

    def test_fuse_ds_with_credibility_file(self, dataset_dir, tmp_path, capsys):
        from repro.cli import main

        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"*": 0.9}), encoding="utf-8")
        code = main(
            [
                "fuse",
                str(dataset_dir / "claims.csv"),
                "--fusion",
                "ds",
                "--credibility-file",
                str(priors),
                "--ds-uncertainty",
                "0.1",
                "--max-rounds",
                "4",
            ]
        )
        assert code == 0
        assert "DS conflict:" in capsys.readouterr().out

    def test_ds_flags_require_fusion_ds(self, dataset_dir, tmp_path):
        from repro.cli import main

        priors = tmp_path / "priors.json"
        priors.write_text("{}", encoding="utf-8")
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit, match="^--credibility-file requires --fusion ds "):
            main(["fuse", claims, "--credibility-file", str(priors)])
        with pytest.raises(SystemExit, match="^--ds-uncertainty requires --fusion ds$"):
            main(["fuse", claims, "--ds-uncertainty", "0.1"])
        with pytest.raises(
            SystemExit, match=r"^--ds-uncertainty must be in \[0, 1\), got 1.5$"
        ):
            main(["fuse", claims, "--fusion", "ds", "--ds-uncertainty", "1.5"])

    def test_unreadable_credibility_file_is_a_clean_exit(self, dataset_dir):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "fuse",
                    str(dataset_dir / "claims.csv"),
                    "--fusion",
                    "ds",
                    "--credibility-file",
                    "/nonexistent/priors.json",
                ]
            )
