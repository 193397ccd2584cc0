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
from hypothesis import strategies as st

from repro.core import (
    CopyParams,
    IncrementalDetector,
    detect,
    scan_with_bounds,
)
from repro.core.index import EntryOrdering
from tests.strategies import (
    adversarial_worlds,
    saturated_worlds,
    theta_edge_worlds,
    worlds,
)

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


def _reference_logs(p, acc1, acc2, params):
    """Eq. (6) both ways as the reference scan's inner loop spells it
    (``core/bound.py``): scalar floats, ``math.log``, clamped accuracies."""
    import math

    a1, a2 = params.clamp_accuracy(acc1), params.clamp_accuracy(acc2)
    q = 1.0 - p
    q_over_n = q * (1.0 / params.n)
    single1 = p * a1 + q * (1.0 - a1)
    single2 = p * a2 + q * (1.0 - a2)
    denom = p * a1 * a2 + q_over_n * (1.0 - a1) * (1.0 - a2)
    one_minus_s = 1.0 - params.s
    return (
        math.log(one_minus_s + params.s * single2 / denom),
        math.log(one_minus_s + params.s * single1 / denom),
    )


def _epoch_scan(dataset, probabilities, accuracies):
    """A fresh BOUND+ ``EpochScan`` over the world (nothing scanned yet)."""
    from repro.core import bound_kernel
    from repro.core.index import InvertedIndex

    params = CopyParams(backend="numpy")
    index = InvertedIndex.build(dataset, probabilities, accuracies, params)
    return bound_kernel.EpochScan(
        dataset, accuracies, params, index, params.theta_cp, params.theta_ind,
        use_timers=True, hybrid_threshold=0, track_bookkeeping=False,
    )


def _bare_scan(accuracies):
    """An ``EpochScan`` over ``len(accuracies)`` sources sharing one value."""
    from repro.data import DatasetBuilder

    builder = DatasetBuilder()
    for source in range(len(accuracies)):
        builder.add(f"S{source}", "item", "v")
    return _epoch_scan(builder.build(), [0.5], accuracies)


class TestProbabilityGrid:
    """Eq. (6) logs taken per distinct ``(probability, accuracy, accuracy)``.

    ``EpochScan._exact_contributions`` switches to the grid whenever
    ``n_acc**2 * n_distinct_p < n_inc``; either side of the switch must
    return the scalar reference's floats exactly (plain ``==``, no
    tolerance), and the ``math.log`` count must be that of the cheaper
    side — the point of the grid.
    """

    #: exactly 1.0 / 0.0 (saturated ACCU), near-saturated, and mid-range
    PROBABILITIES = (1.0, 0.0, 1e-12, 0.02, 0.5, 0.999, 1.0 - 2.0**-53)
    #: both clamp edges, values the clamp moves onto them, and interior
    ACCURACIES = (0.0, 0.004, 0.005, 0.0051, 0.3, 0.5, 0.8, 0.9949, 0.995, 0.999, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_grid_equals_per_incidence_logs(self, data):
        from unittest import mock

        from repro.core import bound_kernel

        accs = data.draw(
            st.lists(st.sampled_from(self.ACCURACIES), min_size=2, max_size=6,
                     unique=True)
        )
        menu = data.draw(
            st.lists(st.sampled_from(self.PROBABILITIES), min_size=1, max_size=3,
                     unique=True)
        )
        scan = _bare_scan(accs)
        n_acc = len(scan.acc_unique)  # clamping may merge drawn accuracies
        # Every menu probability occurs, so n_distinct_p == len(menu).
        extra = data.draw(st.lists(st.sampled_from(menu), max_size=5))
        probs_e = np.asarray(menu + extra, dtype=np.float64)
        cells = n_acc * n_acc * len(menu)
        n_inc = max(1, cells + data.draw(st.sampled_from((-7, -1, 0, 1, 2, 40))))
        lrow = np.asarray(
            data.draw(st.lists(st.integers(0, len(probs_e) - 1),
                               min_size=n_inc, max_size=n_inc)),
            dtype=np.int64,
        )
        sources = st.integers(0, len(accs) - 1)
        s1 = np.asarray(
            data.draw(st.lists(sources, min_size=n_inc, max_size=n_inc)), np.int64
        )
        s2 = np.asarray(
            data.draw(st.lists(sources, min_size=n_inc, max_size=n_inc)), np.int64
        )
        calls = []
        real_log = bound_kernel.log

        def counting_log(x):
            calls.append(x)
            return real_log(x)

        with mock.patch.object(bound_kernel, "log", counting_log):
            fwd, bwd = scan._exact_contributions(probs_e, lrow, s1, s2)

        expected = [
            _reference_logs(float(probs_e[r]), accs[a], accs[b], scan.params)
            for r, a, b in zip(lrow.tolist(), s1.tolist(), s2.tolist())
        ]
        assert fwd.tolist() == [f for f, _ in expected]
        assert bwd.tolist() == [b for _, b in expected]
        # Strictly fewer cells than incidences -> the grid; else direct.
        assert len(calls) == 2 * (cells if cells < n_inc else n_inc)

    def test_switch_sits_exactly_at_equal_cost(self, monkeypatch):
        """cells == n_inc stays per-incidence; one more incidence flips."""
        from repro.core import bound_kernel

        scan = _bare_scan([0.2, 0.4, 0.6, 0.8])
        probs_e = np.asarray([1.0, 0.25])
        cells = 4 * 4 * 2
        shapes = []
        real = bound_kernel.score_incidence_args

        def spy(probs, acc1, acc2, params):
            shapes.append(np.shape(probs))
            return real(probs, acc1, acc2, params)

        monkeypatch.setattr(bound_kernel, "score_incidence_args", spy)
        for n_inc in (cells - 1, cells, cells + 1):
            lrow = np.arange(n_inc) % 2
            s1 = np.arange(n_inc) % 4
            s2 = (np.arange(n_inc) // 4) % 4
            scan._exact_contributions(probs_e, lrow, s1, s2)
        assert shapes == [(cells - 1,), (cells,), (2, 1, 1)]

    @settings(max_examples=25, deadline=None)
    @given(world=saturated_worlds())
    def test_saturated_worlds_bit_identical(self, world):
        """BOUND / BOUND+ / HYBRID on dense worlds saturated at P = 1:
        decisions, decision positions, cost and bookkeeping equal the
        reference under mass-derived epochs and explicit entry counts."""
        assert_scan_identical(world, epoch_sizes=(None, 1, 3, 128))

    @settings(max_examples=15, deadline=None)
    @given(world=saturated_worlds(), layout=st.sampled_from(("dense", "sparse")))
    def test_saturated_worlds_over_several_derived_epochs(self, world, layout):
        """A budget small enough to cut these worlds into several
        mass-derived epochs, under both pair layouts."""
        from unittest import mock

        from repro.core import kernel

        dataset, probs, accs = world
        for label, use_timers, threshold in CONFIGS:
            with mock.patch.object(kernel, "EPOCH_INCIDENCE_BUDGET", 150):
                reference, batched = (
                    scan_with_bounds(
                        dataset, probs, accs, params,
                        use_timers=use_timers, hybrid_threshold=threshold,
                        track_bookkeeping=True,
                    )
                    for params in (
                        CopyParams(backend="python"),
                        CopyParams(backend="numpy", pair_layout=layout),
                    )
                )
            assert batched.result.decisions == reference.result.decisions, label
            assert batched.bookkeeping == reference.bookkeeping, label
            assert batched.result.cost == reference.result.cost, label


class TestEpochBounds:
    """``epoch_size=None`` cuts epochs by incidence mass, not entry count."""

    @settings(max_examples=40, deadline=None)
    @given(
        world=worlds(),
        budget=st.sampled_from((1, 2, 5, 40, 32_768)),
        stop=st.integers(0, 40),
    )
    def test_derived_bounds_follow_cumulative_mass(self, world, budget, stop):
        from unittest import mock

        from repro.core import kernel

        scan = _epoch_scan(*world)
        end = min(stop, scan.cols.n_entries)
        counts = np.diff(scan.cols.offsets[: end + 1])
        with mock.patch.object(kernel, "EPOCH_INCIDENCE_BUDGET", budget):
            bounds = scan._epoch_bounds(counts)
        mass = (counts * (counts - 1) // 2).tolist()
        # A new epoch starts at each entry whose running incidence total
        # lands in a later budget-sized bucket than its predecessor's.
        expected, total, bucket = [0], 0, None
        for position, entry_mass in enumerate(mass):
            total += entry_mass
            if position and total // budget != bucket:
                expected.append(position)
            bucket = total // budget
        assert bounds == (expected + [end] if end else [0])
        # Hence an epoch holds under one budget beyond its first entry.
        for e0, e1 in zip(bounds[:-1], bounds[1:]):
            assert sum(mass[e0 + 1 : e1]) < budget

    def test_explicit_epoch_size_still_counts_entries(self):
        scan = _bare_scan([0.5, 0.6, 0.7])
        scan.epoch_size = 4
        counts = np.full(10, 2, dtype=np.int64)
        assert scan._epoch_bounds(counts) == [0, 4, 8, 10]
        assert scan._epoch_bounds(counts[:8]) == [0, 4, 8]
        assert scan._epoch_bounds(counts[:0]) == [0]


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
        assert live.keys() == golden.keys()
        # The original world, then the dense saturated one (same shape).
        for got, want in ((live, golden), (live["saturated"], golden["saturated"])):
            assert got["methods"].keys() == want["methods"].keys()
            for method, stored in want["methods"].items():
                assert got["methods"][method]["cost"] == stored["cost"], method
                assert (
                    got["methods"][method]["decisions"] == stored["decisions"]
                ), method
            assert got["hybrid_bookkeeping"] == want["hybrid_bookkeeping"]

    def test_fixture_is_nontrivial(self, golden):
        """The frozen world must exercise early conclusions and costs."""
        for method in ("bound", "bound+", "hybrid"):
            rows = golden["methods"][method]["decisions"]
            assert len(rows) > 50
            assert any(row["early"] for row in rows)
            assert any(row["copying"] for row in rows)
            assert golden["methods"][method]["cost"]["computations"] > 0
        assert any(book["early"] for book in golden["hybrid_bookkeeping"])

    def test_saturated_fixture_is_dense_and_saturated(self, golden):
        """Every pair observed, early and exact verdicts both present."""
        from tests.make_golden_bound import golden_saturated_world

        dataset, probs, accs = golden_saturated_world()
        n = dataset.n_sources
        assert len(set(accs)) == n and 1.0 in probs
        for method in ("bound", "bound+", "hybrid"):
            rows = golden["saturated"]["methods"][method]["decisions"]
            assert len(rows) == n * (n - 1) // 2
            assert any(row["early"] for row in rows)
            assert not all(row["early"] for row in rows)
        assert any(b["early"] for b in golden["saturated"]["hybrid_bookkeeping"])


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

    def test_auto_follows_occupancy_under_the_limit(self, monkeypatch, caplog):
        """Three shapes, three choices: observed pairs on 1% of the grid
        go sparse *silently* (an occupancy choice crosses no limit), on
        40% stay dense, and past ``DENSE_STATE_LIMIT`` go sparse with
        the warning; an explicit layout is honoured either way."""
        import logging

        from repro.core import bound_kernel
        from repro.data import DatasetBuilder

        def world(n_sources, group):
            """Sources in disjoint groups of ``group``, each group
            agreeing on its own three items."""
            builder = DatasetBuilder()
            for source in range(n_sources):
                for item in range(3):
                    builder.add(f"S{source}", f"g{source // group}-i{item}", "v")
            dataset = builder.build()
            return dataset, [0.9] * dataset.n_values, [0.8] * n_sources

        def layout_of(shape, **params):
            scan = scan_with_bounds(
                *shape, CopyParams(backend="numpy", **params), collect_state=True
            )
            occupancy = len(scan.shared_items) / scan.n_sources**2
            return scan.space.layout, occupancy

        thin, full = world(40, group=2), world(6, group=6)
        with caplog.at_level(logging.WARNING, logger="repro.core.pairspace"):
            assert layout_of(thin) == ("sparse", 20 / 1600)
            assert layout_of(full) == ("dense", 15 / 36)
            assert layout_of(thin, pair_layout="dense")[0] == "dense"
            assert layout_of(full, pair_layout="sparse")[0] == "sparse"
            assert caplog.records == []
            monkeypatch.setattr(bound_kernel, "DENSE_STATE_LIMIT", 35)
            assert layout_of(full)[0] == "sparse"
            assert ["bound_kernel.EpochScan" in r.message for r in caplog.records] == [True]
        assert bound_kernel.DENSE_MIN_OCCUPANCY == 0.25
        for shape in (thin, full):
            reference = scan_with_bounds(*shape, CopyParams(backend="python"))
            for layout in ("auto", "dense", "sparse"):
                got = scan_with_bounds(
                    *shape, CopyParams(backend="numpy", pair_layout=layout)
                )
                assert got.result.decisions == reference.result.decisions

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


def _stock_world():
    """A small dense stock world: long per-pair timer chains, one epoch."""
    from repro.conformance.generators import profile_world

    return profile_world("stock_1day", 0.01, 3).materialize()


def _replay_against_reference(world, use_timers=True, epoch_size=None, indexes=None):
    """Scan both ways; assert bit-identity; return the reference's eval log
    (grouped by pair) and its outcome."""
    dataset, probs, accs = world
    indexes = indexes or {}
    log = []
    kwargs = dict(use_timers=use_timers, track_bookkeeping=True)
    reference = scan_with_bounds(
        dataset, probs, accs, CopyParams(backend="python"),
        index=indexes.get("python"), eval_log=log, **kwargs,
    )
    batched = scan_with_bounds(
        dataset, probs, accs, CopyParams(backend="numpy"),
        index=indexes.get("numpy"), epoch_size=epoch_size, **kwargs,
    )
    assert batched.result.decisions == reference.result.decisions
    assert batched.bookkeeping == reference.bookkeeping
    assert batched.result.cost == reference.result.cost
    by_pair = {}
    for entry in log:
        by_pair.setdefault(entry.pair, []).append(entry)
    return by_pair, reference


class TestReplayWalk:
    """The flat replay's timer walk on the cases its rounds must get
    right, each shown to occur in the reference's ``eval_log``."""

    def test_world_is_one_epoch(self):
        """So the chains below run inside one replayed group each."""
        scan = _epoch_scan(*_stock_world())
        assert len(scan._epoch_bounds(np.diff(scan.cols.offsets))) == 2

    def test_min_and_max_conclude_at_the_same_cell(self, monkeypatch):
        """``C^min <= C^max`` and ``theta_ind < theta_cp`` keep the two
        conclusion flags apart under real thresholds, so the tie is forced
        by swapping them: with ``theta_ind`` out of every bound's reach a
        due max check always concludes, and a min check concluding at the
        same cell must win.  (The indexes are built first: the build's
        Step III tail reads the real thresholds.)"""
        from repro.core.index import InvertedIndex

        world = _stock_world()
        indexes = {
            backend: InvertedIndex.build(*world, CopyParams(backend=backend))
            for backend in ("python", "numpy")
        }
        monkeypatch.setattr(CopyParams, "theta_cp", property(lambda self: -120.0))
        monkeypatch.setattr(CopyParams, "theta_ind", property(lambda self: 1e6))
        by_pair, reference = _replay_against_reference(world, indexes=indexes)
        ties = [
            pair
            for pair, events in by_pair.items()
            if reference.result.decisions[pair].copying
            and events[-1].kind == "min"
            and (
                events[-1].n1 >= events[-1].scheduled_max1
                or events[-1].n2 >= events[-1].scheduled_max2
            )
        ]
        early = [d for d in reference.result.decisions.values() if d.early]
        assert ties and len(ties) < len(early)

    def test_timer_seeded_in_an_earlier_epoch_fires_first(self):
        """One-entry epochs: every group is one cell, so each timer after
        a pair's first epoch fires on a milestone an earlier epoch set."""
        by_pair, _ = _replay_against_reference(_stock_world(), epoch_size=1)
        later = [e for events in by_pair.values() for e in events[1:]]
        assert any(e.kind == "min" and e.scheduled_min > 0 for e in later)
        assert any(
            e.kind == "max" and min(e.scheduled_max1, e.scheduled_max2) > 0
            for e in later
        )

    def test_non_unit_max_jump_then_hot_run(self):
        """A max check skips incidences (``n0`` jumps by >= 2), then the
        next two checks land on consecutive incidences."""
        by_pair, _ = _replay_against_reference(_stock_world())
        found = False
        for events in by_pair.values():
            n0s = [e.n0 for e in events if e.kind == "max"]
            found |= any(
                b - a >= 2 and c == b + 1 for a, b, c in zip(n0s, n0s[1:], n0s[2:])
            )
        assert found

    def test_max_stop_before_pending_min(self):
        """A pair concludes no-copy while its min timer is still pending."""
        by_pair, reference = _replay_against_reference(_stock_world())
        pending = [
            pair
            for pair, events in by_pair.items()
            if not reference.result.decisions[pair].copying
            and reference.result.decisions[pair].early
            and events[-1].kind == "max"
            and events[-1].scheduled_min > events[-1].n0
        ]
        assert pending

    def test_bound_shares_the_walk(self):
        """BOUND evaluates every incidence: its chains are one run per
        group, cut by both kinds of early conclusion."""
        by_pair, reference = _replay_against_reference(
            _stock_world(), use_timers=False
        )
        verdicts = {
            d.copying for d in reference.result.decisions.values() if d.early
        }
        assert verdicts == {True, False}
        for events in by_pair.values():
            mins = [e.n0 for e in events if e.kind == "min"]
            assert mins == list(range(1, len(mins) + 1))


class TestEpochSizeValidation:
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    @pytest.mark.parametrize("epoch_size", (0, -4))
    def test_non_positive_epoch_size_raises(
        self, backend, epoch_size, example, example_probabilities,
        example_accuracies,
    ):
        match = f"epoch_size must be >= 1, got {epoch_size}"
        with pytest.raises(ValueError, match=match):
            scan_with_bounds(
                example,
                example_probabilities,
                example_accuracies,
                CopyParams(backend=backend),
                epoch_size=epoch_size,
            )
