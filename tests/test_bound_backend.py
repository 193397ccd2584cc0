"""Decision equivalence of the epoch-batched numpy bound backend.

The epoch-batched scan (:mod:`repro.core.bound_kernel`) promises more
than the 1e-9 agreement of the exhaustive kernels: decisions, decision
positions, :class:`~repro.core.result.CostCounter` tallies and
INCREMENTAL's :class:`~repro.core.bound.PairBookkeeping` — stored float
scores included — must be **bit-identical** to the pure-Python reference
(``PairDecision``/``PairBookkeeping`` are compared with plain ``==``
throughout, i.e. exact float equality).  These tests lock that down on
random worlds, adversarial threshold-edge worlds, every
:class:`~repro.core.index.EntryOrdering`, hybrid thresholds {0, 1, 16},
the banded thresholds, and a multi-round INCREMENTAL run.
"""

import pytest

np = pytest.importorskip("numpy", reason="the epoch-batched backend needs numpy")

from hypothesis import given, settings

from repro.core import (
    CopyParams,
    IncrementalDetector,
    detect,
    scan_with_bounds,
)
from repro.core.index import EntryOrdering
from tests.strategies import adversarial_worlds, theta_edge_worlds, worlds

#: (label, use_timers, hybrid_threshold) — BOUND, BOUND+ and HYBRID at
#: the thresholds the issue calls out (1 routes almost nothing to exact
#: mode, 16 is the paper's default).
CONFIGS = (
    ("bound", False, 0),
    ("bound+", True, 0),
    ("hybrid-1", True, 1),
    ("hybrid-16", True, 16),
)

EPOCH_SIZES = (1, 3, 128)


def assert_scan_identical(
    world,
    ordering=EntryOrdering.BY_CONTRIBUTION,
    epoch_sizes=EPOCH_SIZES,
    band=None,
):
    """Both backends must produce bit-identical scan outcomes."""
    dataset, probs, accs = world
    for label, use_timers, threshold in CONFIGS:
        reference = scan_with_bounds(
            dataset,
            probs,
            accs,
            CopyParams(backend="python"),
            ordering=ordering,
            use_timers=use_timers,
            hybrid_threshold=threshold,
            track_bookkeeping=True,
            band=band,
        )
        for epoch_size in epoch_sizes:
            batched = scan_with_bounds(
                dataset,
                probs,
                accs,
                CopyParams(backend="numpy"),
                ordering=ordering,
                use_timers=use_timers,
                hybrid_threshold=threshold,
                track_bookkeeping=True,
                band=band,
                epoch_size=epoch_size,
            )
            context = (label, ordering, epoch_size)
            # Bit-identical verdicts, scores, posteriors, early flags.
            assert batched.result.decisions == reference.result.decisions, context
            # Bit-identical bookkeeping: decision positions, before/after
            # counts, exact stored base scores.
            assert batched.bookkeeping == reference.bookkeeping, context
            ref_cost = reference.result.cost
            new_cost = batched.result.cost
            assert new_cost.computations == ref_cost.computations, context
            assert new_cost.values_examined == ref_cost.values_examined, context
            assert new_cost.pairs_considered == ref_cost.pairs_considered, context


class TestDecisionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(world=worlds())
    def test_random_worlds(self, world):
        assert_scan_identical(world)

    @settings(max_examples=15, deadline=None)
    @given(world=worlds())
    @pytest.mark.parametrize(
        "ordering", [EntryOrdering.BY_PROVIDER, EntryOrdering.RANDOM]
    )
    def test_alternative_orderings(self, world, ordering):
        assert_scan_identical(world, ordering=ordering)

    @settings(max_examples=40, deadline=None)
    @given(world=adversarial_worlds())
    def test_adversarial_worlds(self, world):
        assert_scan_identical(world)

    @settings(max_examples=15, deadline=None)
    @given(world=worlds())
    def test_banded_thresholds(self, world):
        assert_scan_identical(world, band=(0.1, 0.9), epoch_sizes=(3,))

    def test_theta_edge_worlds(self, params):
        """Adjacent-float probability edges: the >=/< tie-breaks agree."""
        edges = []
        for n_shared in (1, 2, 5):
            edges.extend(theta_edge_worlds(params, n_shared=n_shared))
        assert len(edges) >= 3
        for world in edges:
            assert_scan_identical(world)

    def test_motivating_example(
        self, example, example_probabilities, example_accuracies
    ):
        assert_scan_identical((example, example_probabilities, example_accuracies))

    @settings(max_examples=15, deadline=None)
    @given(world=worlds())
    def test_epoch_size_invariance(self, world):
        """The epoch size is a pure performance knob: outcomes identical."""
        dataset, probs, accs = world
        outcomes = [
            scan_with_bounds(
                dataset,
                probs,
                accs,
                CopyParams(backend="numpy"),
                track_bookkeeping=True,
                epoch_size=epoch_size,
            )
            for epoch_size in (1, 2, 7, 64, 4096)
        ]
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other.result.decisions == first.result.decisions
            assert other.bookkeeping == first.bookkeeping
            assert other.result.cost.computations == first.result.cost.computations


class TestIncrementalEquivalence:
    """INCREMENTAL seeded by the numpy preparation round is unchanged."""

    @settings(max_examples=10, deadline=None)
    @given(world=worlds(max_sources=6, max_items=10))
    def test_rounds_identical(self, world):
        dataset, probs, accs = world
        detectors = {
            backend: IncrementalDetector(CopyParams(backend=backend))
            for backend in ("python", "numpy")
        }
        # Drift probabilities/accuracies deterministically across rounds.
        for round_no in range(1, 5):
            shift = 0.03 * round_no
            round_probs = [min(0.999, max(0.001, p + shift)) for p in probs]
            round_accs = [min(0.99, max(0.01, a - shift / 2.0)) for a in accs]
            results = {
                backend: detector.run_round(
                    round_no, dataset, round_probs, round_accs
                )
                for backend, detector in detectors.items()
            }
            assert results["numpy"].decisions == results["python"].decisions, round_no


class TestCostAccounting:
    """The paper's computation accounting, on both backends."""

    @settings(max_examples=25, deadline=None)
    @given(world=worlds())
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_bound_evaluates_every_shared_entry(self, world, backend):
        """BOUND's closed-form cost identity.

        Every active incidence performs two score updates and a
        ``C^min`` evaluation; the ``C^max`` evaluation follows unless the
        pair just concluded copying; every non-early pair pays the final
        two-score adjustment.  Hence::

            computations = 2*VE + (2*VE - early_copy) + 2*(pairs - early)
        """
        dataset, probs, accs = world
        result = detect(
            dataset, probs, accs, CopyParams(backend=backend), method="bound"
        )
        early = sum(1 for d in result.decisions.values() if d.early)
        early_copy = sum(
            1 for d in result.decisions.values() if d.early and d.copying
        )
        incidences = result.cost.values_examined
        pairs = result.cost.pairs_considered
        expected = (
            2 * incidences
            + (2 * incidences - early_copy)
            + 2 * (pairs - early)
        )
        assert result.cost.computations == expected

    @settings(max_examples=25, deadline=None)
    @given(world=worlds())
    def test_bound_plus_matches_timer_milestones(self, world):
        """BOUND+ re-evaluations happen exactly at the scheduled timers.

        The reference scan's ``eval_log`` records every evaluation with
        the milestone in effect: a min re-evaluation must land on the
        first shared entry whose ``n0`` reaches ``min_check_at``; a max
        re-evaluation must be triggered by one of its two scan-count
        milestones.  The numpy backend is held to the same schedule
        through its bit-identical computation count.
        """
        from repro.core import BoundEval  # noqa: F401 - documented type

        dataset, probs, accs = world
        log = []
        reference = scan_with_bounds(
            dataset,
            probs,
            accs,
            CopyParams(),
            use_timers=True,
            hybrid_threshold=0,
            eval_log=log,
        )
        last_min_n0 = {}
        for entry in log:
            if entry.kind == "min":
                expected = max(entry.scheduled_min, last_min_n0.get(entry.pair, 0) + 1)
                assert entry.n0 == expected, entry
                last_min_n0[entry.pair] = entry.n0
            else:
                assert (
                    entry.n1 >= entry.scheduled_max1
                    or entry.n2 >= entry.scheduled_max2
                ), entry
        # The recorded evaluations are the whole of the bound-eval cost:
        # computations = 2*VE (score updates) + |log| + 2*(non-early).
        early = sum(1 for d in reference.result.decisions.values() if d.early)
        non_early = reference.result.cost.pairs_considered - early
        assert reference.result.cost.computations == (
            2 * reference.result.cost.values_examined + len(log) + 2 * non_early
        )
        # And the numpy backend reproduces that count without the log.
        batched = scan_with_bounds(
            dataset,
            probs,
            accs,
            CopyParams(backend="numpy"),
            use_timers=True,
            hybrid_threshold=0,
        )
        assert (
            batched.result.cost.computations
            == reference.result.cost.computations
        )

    def test_eval_log_forces_reference_path(
        self, example, example_probabilities, example_accuracies
    ):
        """Requesting the eval log under backend='numpy' still logs."""
        log = []
        outcome = scan_with_bounds(
            example,
            example_probabilities,
            example_accuracies,
            CopyParams(backend="numpy"),
            use_timers=False,
            eval_log=log,
        )
        assert len(log) > 0
        assert outcome.result.cost.computations > 0


class TestGoldenFixtures:
    """Checked-in regression freeze of a deterministic world's outcome.

    ``tests/data/golden_bound.json`` stores every method's full
    ``DetectionResult`` (scores as bit-exact ``float.hex``) plus HYBRID's
    INCREMENTAL bookkeeping.  Any behaviour drift in either backend —
    however subtle — shows up as a diff here during the soak period.
    Regenerate deliberately with ``python tests/make_golden_bound.py``.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        import json

        from tests.make_golden_bound import GOLDEN_PATH

        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_matches_fixture(self, golden, backend):
        from tests.make_golden_bound import golden_payload

        live = golden_payload(backend)
        del live["backend"]
        assert live["methods"].keys() == golden["methods"].keys()
        for method, stored in golden["methods"].items():
            assert live["methods"][method]["cost"] == stored["cost"], method
            assert live["methods"][method]["decisions"] == stored["decisions"], method
        assert live["hybrid_bookkeeping"] == golden["hybrid_bookkeeping"]

    def test_fixture_is_nontrivial(self, golden):
        """The frozen world must exercise early conclusions and costs."""
        for method in ("bound", "bound+", "hybrid"):
            rows = golden["methods"][method]["decisions"]
            assert len(rows) > 50
            assert any(row["early"] for row in rows)
            assert any(row["copying"] for row in rows)
            assert golden["methods"][method]["cost"]["computations"] > 0
        assert any(book["early"] for book in golden["hybrid_bookkeeping"])


class TestOversizedKeySpace:
    """Beyond the dense-state limit the scan stays vectorized — sparse.

    The pre-PR-6 behaviour (a *silent* fallback to the pure-Python
    reference loop) is retired: ``"auto"`` switches to the sparse
    observed-pair layout, logs the switch, and stays bit-identical.
    """

    def test_auto_goes_sparse_and_logs(self, monkeypatch, caplog):
        import logging

        import repro.core.bound as bound_module
        from repro.core import bound_kernel
        from tests.strategies import shared_run_world

        monkeypatch.setattr(bound_kernel, "DENSE_STATE_LIMIT", 1)
        dataset, probs, accs = shared_run_world(3, 0.05)
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            result = bound_module.detect_bound_plus(
                dataset, probs, accs, CopyParams(backend="numpy")
            )
        reference = bound_module.detect_bound_plus(
            dataset, probs, accs, CopyParams(backend="python")
        )
        assert result.decisions == reference.decisions
        assert any(
            "bound_kernel.EpochScan" in rec.message
            and "sparse" in rec.message
            for rec in caplog.records
        )

    @settings(max_examples=15, deadline=None)
    @given(world=worlds())
    def test_forced_sparse_layout_is_bit_identical(self, world):
        """pair_layout='sparse' reproduces every scan outcome exactly."""
        dataset, probs, accs = world
        for label, use_timers, threshold in CONFIGS:
            reference = scan_with_bounds(
                dataset,
                probs,
                accs,
                CopyParams(backend="python"),
                use_timers=use_timers,
                hybrid_threshold=threshold,
                track_bookkeeping=True,
            )
            sparse = scan_with_bounds(
                dataset,
                probs,
                accs,
                CopyParams(backend="numpy", pair_layout="sparse"),
                use_timers=use_timers,
                hybrid_threshold=threshold,
                track_bookkeeping=True,
                epoch_size=3,
            )
            assert sparse.result.decisions == reference.result.decisions, label
            assert sparse.bookkeeping == reference.bookkeeping, label
            assert (
                sparse.result.cost.computations
                == reference.result.cost.computations
            ), label
