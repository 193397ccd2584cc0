"""The conformance engine: generators, contracts, shrinking, corpus."""

import json

import pytest

from repro.conformance import (
    CaseConfig,
    RandomChooser,
    adversarial_world,
    case_id,
    generate_world,
    load_case,
    random_world,
    replay_case,
    run_case,
    run_grid,
    save_case,
    shrink_world,
    smoke_grid,
    full_grid,
    world_from_problem,
)
from repro.conformance.engine import _case_problems
from repro.core import CopyParams, detect


class TestGenerators:
    def test_world_stream_is_deterministic(self):
        for index in range(14):
            first = generate_world(index, seed=31)
            second = generate_world(index, seed=31)
            assert first.sources == second.sources
            assert first.claims == second.claims
            assert first.prob_by_value == second.prob_by_value
            assert first.acc_by_source == second.acc_by_source

    def test_world_stream_varies_with_seed(self):
        assert generate_world(0, seed=1).claims != generate_world(0, seed=2).claims

    def test_stream_cycles_all_kinds(self):
        kinds = {generate_world(i, seed=7).kind.split(":")[0] for i in range(18)}
        assert kinds == {
            "random", "adversarial", "shared_run", "profile",
            "large_sparse", "theta_edge", "saturated",
        }

    def test_materialize_is_stable(self):
        world = generate_world(3, seed=7)
        first = world.materialize()
        second = world.materialize()
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert first[0].source_names == second[0].source_names

    def test_worlds_are_detectable(self):
        import random

        for builder in (random_world, adversarial_world):
            world = builder(RandomChooser(random.Random(5)))
            dataset, probs, accs = world.materialize()
            assert dataset.n_sources >= 2
            assert len(probs) == dataset.n_values
            assert len(accs) == dataset.n_sources
            detect(dataset, probs, accs, CopyParams(backend="python"))

    def test_world_from_problem_round_trips(self, example):
        probs = [0.5 + 0.001 * v for v in range(example.n_values)]
        accs = [0.6 + 0.01 * s for s in range(example.n_sources)]
        world = world_from_problem(example, probs, accs, kind="example")
        dataset, got_probs, got_accs = world.materialize()
        assert dataset.source_names == example.source_names
        assert dataset.claims == example.claims
        assert got_probs == probs
        assert got_accs == accs

    def test_cuts_preserve_name_keying(self):
        world = generate_world(0, seed=7)
        source = world.sources[-1]
        cut = world.without_source(source)
        assert source not in cut.sources
        assert all(claim[0] != source for claim in cut.claims)
        dataset, probs, accs = cut.materialize()
        assert len(accs) == dataset.n_sources


class TestCaseConfig:
    def test_rejects_bad_mode_and_method(self):
        with pytest.raises(ValueError):
            CaseConfig("fuzz", "index")
        with pytest.raises(ValueError):
            CaseConfig("detect", "incremental")  # fusion-only method
        with pytest.raises(ValueError):
            CaseConfig("scan", "pairwise")

    def test_contract_classification(self):
        assert CaseConfig("scan", "bound").contract == "bitexact"
        assert CaseConfig("detect", "bound+").contract == "bitexact"
        assert CaseConfig("detect", "pairwise").contract == "numeric"
        assert (
            CaseConfig("detect", "index", backend="python",
                       n_partitions=2, executor="threads").contract
            == "bitexact"
        )
        assert (
            CaseConfig("detect", "hybrid", n_partitions=2).contract == "numeric"
        )
        # One rule: a fusion case's per-round detection contract and its
        # own contract, which the truth-finding backend also decides.
        for config, contracts in (
            (CaseConfig("fusion", "hybrid"), ("bitexact", "numeric")),
            (
                CaseConfig("fusion", "incremental", backend="python",
                           fusion_backend="numpy"),
                ("bitexact", "numeric"),
            ),
            (CaseConfig("fusion", "index", n_partitions=2), ("numeric", "numeric")),
            (CaseConfig("fusion", "bound", backend="python"), ("bitexact",) * 2),
        ):
            assert (config.detection_contract, config.contract) == contracts, (
                config.label
            )

    @pytest.mark.parametrize(
        "axes",
        [
            dict(n_partitions=0),
            dict(n_partitions=2, executor="thread"),
            dict(n_partitions=2, reduce="ring"),
            dict(n_partitions=2, executor="remote", backend="python"),
            dict(backend="cuda"),
        ],
        ids=lambda axes: "-".join(f"{k}={v}" for k, v in axes.items()),
    )
    def test_rejects_invalid_execution_axes(self, axes):
        """A fixture's JSON is outside input: an axis the run would
        silently drop, or that only the candidate rejects, fails to load."""
        for mode, method in (("detect", "index"), ("fusion", "hybrid")):
            with pytest.raises(ValueError):
                CaseConfig(mode, method, **axes)

    def test_rejects_partitions_the_method_cannot_use(self):
        for mode, method in (
            ("detect", "bound+"),
            ("fusion", "incremental"),
            ("fusion", "none"),
            ("scan", "hybrid"),
        ):
            with pytest.raises(ValueError, match="n_partitions > 1"):
                CaseConfig(mode, method, n_partitions=2)
        assert CaseConfig("fusion", "hybrid", n_partitions=2).n_partitions == 2

    def test_reference_flips_only_implementation_axes(self):
        config = CaseConfig(
            "detect", "hybrid", n_partitions=3, executor="processes",
            reduce="tree", hybrid_threshold=4,
        )
        reference = config.reference()
        assert reference.backend == "python"
        assert reference.executor == "serial"
        assert reference.n_partitions == 3
        assert reference.reduce == "tree"
        assert reference.hybrid_threshold == 4
        # The epoch axis exists where the stress is applied: scan mode.
        assert CaseConfig("scan", "hybrid", epoch_size=16).reference().epoch_size == 16
        for mode, method in (("detect", "hybrid"), ("fusion", "hybrid")):
            with pytest.raises(ValueError, match="epoch_size applies to mode 'scan'"):
                CaseConfig(mode, method, epoch_size=16)

    @pytest.mark.parametrize("epoch_size", (0, -4))
    def test_non_positive_epoch_size_rejected(self, epoch_size):
        """Not labelled ``e0`` / ``e-4`` and then run as ``e1``."""
        match = f"epoch_size must be >= 1, got {epoch_size}"
        with pytest.raises(ValueError, match=match):
            CaseConfig("scan", "bound+", epoch_size=epoch_size)

    def test_every_configuration_meets_every_world_kind(self):
        """Case ``i`` runs configuration ``i % len(grid)`` on world kind
        ``i % len(WORLD_KINDS)``: that covers every pairing only while the
        two lengths are coprime."""
        from math import gcd

        from repro.conformance.generators import WORLD_KINDS

        for grid in (smoke_grid(), full_grid()):
            assert gcd(len(grid), len(WORLD_KINDS)) == 1, len(grid)

    def test_grid_labels_unique(self):
        for grid in (smoke_grid(), full_grid()):
            labels = [config.label for config in grid]
            assert len(labels) == len(set(labels))

    def test_smoke_grid_covers_required_axes(self):
        """The acceptance surface: seven methods, two backends, all four
        executors, both reduce modes, multi-round incremental fusion."""
        grid = smoke_grid()
        methods = {c.method for c in grid}
        assert methods >= {
            "pairwise", "index", "bound", "bound+", "hybrid",
            "incremental", "none",
        }
        assert {c.backend for c in grid} == {"python", "numpy"}
        assert {c.executor for c in grid} == {
            "serial", "threads", "processes", "remote",
        }
        assert {c.reduce for c in grid} == {"flat", "tree"}
        assert any(
            c.mode == "fusion" and c.method == "incremental" and c.rounds >= 3
            for c in grid
        )

    def test_smoke_run_scans_saturated_worlds_in_both_layouts(self):
        """Push-time coverage of the probability-keyed log grid: within
        the default 240 cases the saturated worlds meet a mass-derived
        epoch scan under dense and under sparse pair slots."""
        from repro.conformance.generators import WORLD_KINDS

        grid = smoke_grid()
        met = [
            grid[i % len(grid)]
            for i in range(240)
            if WORLD_KINDS[i % len(WORLD_KINDS)] == "saturated"
        ]
        layouts = {
            c.pair_layout for c in met if c.mode == "scan" and c.epoch_size is None
        }
        assert layouts == {"auto", "sparse"}
        assert any(c.method == "incremental" for c in met)


class TestRunCase:
    @pytest.mark.parametrize(
        "config",
        [
            CaseConfig("detect", "pairwise"),
            CaseConfig("detect", "bound+"),
            CaseConfig("scan", "hybrid", epoch_size=3),
            CaseConfig("fusion", "incremental", rounds=3),
            CaseConfig("detect", "index", n_partitions=2, executor="threads",
                       reduce="tree"),
        ],
        ids=lambda c: c.label,
    )
    def test_conforming_configs_produce_no_divergence(self, config):
        for index in (0, 1, 4):
            outcome = run_case(generate_world(index, seed=13), config)
            assert outcome.divergences == []

    def test_candidate_exception_is_a_divergence(self, monkeypatch):
        import repro.core.bound_kernel as bound_kernel

        def boom(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(bound_kernel, "EpochScan", boom)
        outcome = run_case(
            generate_world(0, seed=13), CaseConfig("detect", "bound")
        )
        assert outcome.diverged
        assert "injected kernel fault" in outcome.divergences[0]

    def test_detection_problems_flag_each_field(self, example, params):
        from dataclasses import replace as dc_replace

        probs = [0.5] * example.n_values
        accs = [0.8] * example.n_sources
        reference = detect(
            example, probs, accs, CopyParams(backend="python"), method="pairwise"
        )
        candidate = detect(
            example, probs, accs, CopyParams(backend="python"), method="pairwise"
        )
        exact = CaseConfig("detect", "pairwise", backend="python")
        tolerant = CaseConfig("detect", "pairwise")
        assert (exact.detection_contract, tolerant.detection_contract) == (
            "bitexact", "numeric",
        )
        assert _case_problems(reference, candidate, exact) == []
        pair, decision = next(iter(candidate.decisions.items()))
        candidate.decisions[pair] = dc_replace(decision, c_fwd=decision.c_fwd + 1e-6)
        numeric = _case_problems(reference, candidate, tolerant)
        assert any("c_fwd" in problem for problem in numeric)
        bitexact = _case_problems(reference, candidate, exact)
        assert any("bit-identical" in problem for problem in bitexact)
        candidate.decisions.pop(pair)
        assert any(
            "pairs differ" in problem
            for problem in _case_problems(reference, candidate, tolerant)
        )

    def test_injected_fusion_fault_is_caught_and_shrunk(self, monkeypatch, tmp_path):
        """End to end: a corrupted ACCU kernel diverges, the world
        shrinks, the fixture replays red under the fault and green
        without it."""
        import repro.fusion.accu_kernel as accu_kernel

        true_update = accu_kernel.update_accuracies_columnar

        def skewed(cols, probabilities, params):
            return true_update(cols, probabilities, params) * 0.999

        monkeypatch.setattr(accu_kernel, "update_accuracies_columnar", skewed)
        config = CaseConfig("fusion", "none", rounds=2)
        world = generate_world(0, seed=13)
        outcome = run_case(world, config)
        assert outcome.diverged
        assert any("accuracies" in detail for detail in outcome.divergences)

        shrunk = shrink_world(
            world, lambda w: run_case(w, config).diverged, max_checks=60
        )
        assert shrunk.n_claims <= world.n_claims
        assert run_case(shrunk, config).diverged

        path = save_case(
            shrunk, config, outcome.divergences, corpus_dir=tmp_path
        )
        assert replay_case(path)  # still red while the fault is injected
        monkeypatch.setattr(accu_kernel, "update_accuracies_columnar", true_update)
        assert replay_case(path) == []  # green once fixed

    def test_state_drift_the_verdicts_hide_is_a_divergence(self, monkeypatch):
        """The fusion lockstep compares INCREMENTAL's cross-round state,
        not only the round's verdicts: one ulp on a stored reference
        score or one record's base score is reported by name."""
        import numpy as np

        from repro.core.incremental_kernel import ColumnarIncrementalState

        config = CaseConfig("fusion", "incremental", rounds=3)
        world = generate_world(5, seed=13)  # a profile world: pairs get booked
        assert run_case(world, config).divergences == []
        true_round = ColumnarIncrementalState.run_round

        def nudged(column):
            def run_round(state, *args):
                result = true_round(state, *args)
                values = getattr(state, column)
                values[0] = np.nextafter(values[0], np.inf)
                return result

            return run_round

        for column, message in (
            ("s_ref", "state s_ref differs"),
            ("c_base_fwd", "state records differ, first at pair"),
        ):
            monkeypatch.setattr(ColumnarIncrementalState, "run_round", nudged(column))
            divergences = run_case(world, config).divergences
            assert divergences and all("round 3" in d for d in divergences)
            assert any(message in d for d in divergences), divergences[:3]

    def test_shrinker_minimises_against_a_predicate(self):
        world = generate_world(2, seed=13)
        assert world.n_claims > 2
        target = world.claims[0]

        shrunk = shrink_world(
            world, lambda w: target in w.claims, max_checks=500
        )
        assert target in shrunk.claims
        assert shrunk.n_sources == 2  # floor: detection needs a pair
        assert all(
            claim == target or claim[0] != target[0] for claim in shrunk.claims
        ) or shrunk.n_claims < world.n_claims


class TestGridRunner:
    def test_small_grid_runs_green(self):
        report = run_grid(grid="smoke", n_cases=26, seed=19)
        assert report.ok
        assert report.n_cases == 26
        assert sum(report.cases_per_config.values()) == 26
        payload = report.to_json()
        assert payload["version"] == 1
        assert payload["ok"] is True
        assert len(payload["configs"]) == len(smoke_grid())

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid(grid="nope", n_cases=1)
        with pytest.raises(ValueError):
            run_grid(grid="smoke", n_cases=0)

    def test_divergences_reach_report_and_corpus(self, monkeypatch, tmp_path):
        import repro.fusion.accu_kernel as accu_kernel

        true_update = accu_kernel.update_accuracies_columnar
        monkeypatch.setattr(
            accu_kernel,
            "update_accuracies_columnar",
            lambda cols, probabilities, params: true_update(
                cols, probabilities, params
            )
            * 0.999,
        )
        import repro.conformance.engine as engine

        monkeypatch.setattr(engine, "MAX_SHRINK_CHECKS", 30)
        configs = [CaseConfig("fusion", "none", rounds=2)]
        report = run_grid(
            n_cases=2, seed=13, configs=configs, corpus_dir=tmp_path
        )
        assert not report.ok
        assert report.divergences
        fixture = report.divergences[0].corpus_path
        assert fixture is not None
        payload = json.loads(open(fixture).read())
        assert payload["version"] == 1
        assert payload["divergence_at_capture"]


class TestCorpusFormat:
    def test_round_trip_is_lossless(self, tmp_path):
        world = generate_world(1, seed=23)
        config = CaseConfig("scan", "bound+", epoch_size=3)
        path = save_case(world, config, ["details"], corpus_dir=tmp_path)
        loaded_world, loaded_config, meta = load_case(path)
        assert loaded_world.sources == world.sources
        assert loaded_world.claims == world.claims
        assert loaded_world.prob_by_value == world.prob_by_value  # bit-exact
        assert loaded_world.acc_by_source == world.acc_by_source
        assert loaded_config == config
        assert meta["version"] == 1
        assert meta["id"] == case_id(world, config)

    def test_newer_schema_rejected(self, tmp_path):
        world = generate_world(1, seed=23)
        path = save_case(world, CaseConfig("detect", "index"), [], tmp_path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema version"):
            load_case(path)

    def test_case_id_is_deterministic_and_distinct(self):
        world = generate_world(1, seed=23)
        other = generate_world(2, seed=23)
        config = CaseConfig("detect", "index")
        assert case_id(world, config) == case_id(world, config)
        assert case_id(world, config) != case_id(other, config)
        assert case_id(world, config) != case_id(
            world, CaseConfig("detect", "pairwise")
        )
