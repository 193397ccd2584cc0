"""Detector dispatch and the stateful round detectors."""

import pytest

from repro.core import (
    METHODS,
    PARALLEL_METHODS,
    CopyParams,
    IncrementalDetector,
    InvertedIndex,
    SingleRoundDetector,
    detect,
    make_detector,
)
from repro.core.detector import PREPARE_ROUND


class TestDetectDispatch:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_run(
        self, example, example_probabilities, example_accuracies, params, method
    ):
        result = detect(
            example, example_probabilities, example_accuracies, params, method=method
        )
        assert result.method in (method, "hybrid", "bound+")
        assert result.decisions

    def test_unknown_method(
        self, example, example_probabilities, example_accuracies, params
    ):
        with pytest.raises(ValueError):
            detect(
                example,
                example_probabilities,
                example_accuracies,
                params,
                method="nope",
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_methods_agree_on_example(
        self, example, example_probabilities, example_accuracies, params, method
    ):
        reference = detect(
            example,
            example_probabilities,
            example_accuracies,
            params,
            method="pairwise",
        )
        result = detect(
            example, example_probabilities, example_accuracies, params, method=method
        )
        assert result.copying_pairs() == reference.copying_pairs()


class TestSingleRoundDetector:
    def test_validates_method(self, params):
        with pytest.raises(ValueError):
            SingleRoundDetector(params, method="incremental")

    def test_run_round(
        self, example, example_probabilities, example_accuracies, params
    ):
        detector = SingleRoundDetector(params, method="index")
        a = detector.run_round(1, example, example_probabilities, example_accuracies)
        b = detector.run_round(2, example, example_probabilities, example_accuracies)
        assert a.copying_pairs() == b.copying_pairs()


class TestIncrementalDetector:
    def test_schedule(
        self, example, example_probabilities, example_accuracies, params
    ):
        """Rounds 1-2 run HYBRID (round 2 prepares state); round 3+ are
        incremental."""
        detector = IncrementalDetector(params)
        r1 = detector.run_round(
            1, example, example_probabilities, example_accuracies
        )
        assert detector.state is None
        assert r1.method == "hybrid"
        r2 = detector.run_round(
            2, example, example_probabilities, example_accuracies
        )
        assert detector.state is not None
        assert r2.method == "hybrid"
        r3 = detector.run_round(
            3, example, example_probabilities, example_accuracies
        )
        assert r3.method == "incremental"
        assert r3.copying_pairs() == r2.copying_pairs()

    def test_out_of_order_round_prepares(self, example, example_probabilities, example_accuracies, params):
        """Jumping straight to round 5 without state falls back to prep."""
        detector = IncrementalDetector(params)
        result = detector.run_round(
            5, example, example_probabilities, example_accuracies
        )
        assert detector.state is not None
        assert result.method == "hybrid"


class TestSharedItemsCache:
    """Regression: shared-item counts must key on the dataset object.

    The original implementation kept a private cache keyed on
    ``id(dataset)``; ids are recycled once a dataset is garbage
    collected, so a fresh dataset allocated at the same address silently
    inherited the previous dataset's counts.  The counts now live on the
    bound :class:`~repro.fusion.FusionWorkspace` alone, which holds its
    dataset by strong reference and is consulted by identity.
    """

    @staticmethod
    def _detector(detector_cls, params):
        if detector_cls is SingleRoundDetector:
            return detector_cls(params, method="index")
        return detector_cls(params)

    @pytest.mark.parametrize("detector_cls", [SingleRoundDetector, IncrementalDetector])
    def test_cache_holds_strong_reference(
        self, example, example_probabilities, example_accuracies, params, detector_cls
    ):
        from repro.fusion import FusionWorkspace

        detector = self._detector(detector_cls, params)
        with FusionWorkspace(example, params) as workspace:
            detector.bind_workspace(workspace)
            counts = detector._shared_items(example)
            assert workspace.dataset is example  # strong ref, not an id snapshot
            assert counts is workspace.shared_items
            # Same object: a second read returns the identical mapping.
            assert detector._shared_items(example) is counts
        assert not hasattr(detector, "_shared_items_cache")  # one cache, not two

    @pytest.mark.parametrize("detector_cls", [SingleRoundDetector, IncrementalDetector])
    def test_distinct_datasets_get_distinct_counts(
        self, params, detector_cls
    ):
        from repro.data import DatasetBuilder
        from repro.fusion import FusionWorkspace

        def build(n_items):
            builder = DatasetBuilder()
            for i in range(n_items):
                builder.add("A", f"item{i}", "v")
                builder.add("B", f"item{i}", "v")
            return builder.build()

        detector = self._detector(detector_cls, params)
        first = build(2)
        workspace = FusionWorkspace(first, params)
        detector.bind_workspace(workspace)
        assert detector._shared_items(first) == {(0, 1): 2}
        # A new dataset — under id() keying a recycled address could
        # serve the stale {(0, 1): 2} for a 3-item dataset; the bound
        # workspace is for another object, so nothing is served ...
        second = build(3)
        assert detector._shared_items(second) is None
        workspace.close()
        # ... and a workspace built for it counts afresh.
        with FusionWorkspace(second, params) as workspace:
            detector.bind_workspace(workspace)
            assert detector._shared_items(second) == {(0, 1): 3}


# ----------------------------------------------------------------------
# One round dispatcher
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def book_world():
    from repro.fusion import vote_probabilities
    from repro.synth import make_profile

    dataset = make_profile("book_cs", scale=0.08, seed=3).dataset
    return dataset, vote_probabilities(dataset), [0.8] * dataset.n_sources


def _partition_cells():
    for method in METHODS:
        yield method, 1
        if method in PARALLEL_METHODS:
            yield method, 3


class TestDispatchParity:
    """detect(), SingleRoundDetector and make_detector are one dispatch:
    every (method, partitioning, backend) cell gives the same round."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("method, n_partitions", list(_partition_cells()))
    def test_three_entry_points_agree(self, book_world, method, n_partitions, backend):
        dataset, probs, accs = book_world
        params = CopyParams(backend=backend)
        world = (dataset, probs, accs, params)
        direct = detect(*world, method=method, n_partitions=n_partitions)
        rounds = [
            SingleRoundDetector(params, method, n_partitions=n_partitions),
            make_detector(method, params, n_partitions=n_partitions),
        ]
        if n_partitions > 1:
            from repro.parallel import detect_hybrid_parallel, detect_index_parallel

            engine = (
                detect_index_parallel if method == "index" else detect_hybrid_parallel
            )
            index = InvertedIndex.build(*world)
            others = [engine(*world, index, n_partitions=n_partitions)]
        else:
            others = []
        others += [detector.run_round(1, dataset, probs, accs) for detector in rounds]
        assert direct.decisions
        for other in others:
            assert other.method == direct.method
            assert other.decisions == direct.decisions
            assert other.cost == direct.cost

    def test_make_detector_picks_the_class(self, params):
        assert make_detector("none", params) is None
        incremental = make_detector("incremental", params, hybrid_threshold=5)
        assert isinstance(incremental, IncrementalDetector)
        assert incremental.hybrid_threshold == 5
        single = make_detector("bound+", params, hybrid_threshold=5)
        assert isinstance(single, SingleRoundDetector)
        assert (single.method, single.hybrid_threshold) == ("bound+", 5)
        with pytest.raises(TypeError, match="epoch_size"):
            make_detector("bound+", params, epoch_size=5)  # scan-level only
        with pytest.raises(ValueError):
            make_detector("nope", params)

    @pytest.mark.parametrize("method", ["pairwise", "bound", "bound+"])
    def test_partitioning_needs_a_parallel_method(self, book_world, params, method):
        dataset, probs, accs = book_world
        with pytest.raises(ValueError, match="n_partitions > 1 supports"):
            detect(dataset, probs, accs, params, method=method, n_partitions=2)

    def test_incremental_rounds_take_their_columns_from_the_workspace(
        self, book_world, monkeypatch
    ):
        """Every from-scratch INCREMENTAL round is seeded by the fusion
        workspace like any other numpy round: neither the run nor a
        later read of the kept index's columns re-columnarizes it with
        ``ColumnarEntries.from_index``."""
        from repro.core.kernel import ColumnarEntries
        from tests.rounds import fuse_keeping_rounds

        calls = []
        original = ColumnarEntries.from_index.__func__

        def counting(cls, index):
            calls.append(index)
            return original(cls, index)

        monkeypatch.setattr(ColumnarEntries, "from_index", classmethod(counting))
        params = CopyParams(backend="numpy")
        detector = IncrementalDetector(params)
        result, results = fuse_keeping_rounds(book_world[0], params, detector)
        assert result.n_rounds > PREPARE_ROUND  # incremental rounds ran too
        prepared = results[PREPARE_ROUND - 1].columns()
        assert len(prepared) and (prepared.decision_pos >= 0).all()
        index = detector.state.index
        assert index.columnar_entries().n_entries == index.n_entries
        assert calls == []


class TestOneDispatcherStructure:
    """A structural guard: the round-assembly copies must not grow back."""

    @staticmethod
    def _calls():
        """``(relative path, dotted callee)`` for every call in src/repro."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    yield path.relative_to(root).as_posix(), ast.unparse(node.func)

    def test_round_assembly_lives_in_one_place(self):
        sites = {}
        for path, callee in self._calls():
            sites.setdefault(callee.rsplit(".", 1)[-1], []).append((path, callee))

        def outside_parallel(name):
            return [p for p, _ in sites[name] if not p.startswith("parallel/")]

        assert outside_parallel("detect_index_parallel") == ["core/detector.py"]
        assert outside_parallel("detect_hybrid_parallel") == ["core/detector.py"]
        builds = [
            p for p, callee in sites["build"]
            if callee == "InvertedIndex.build" and p == "core/detector.py"
        ]
        assert builds == ["core/detector.py"]
        # The partitioned detectors scan the index they are handed.
        assert not [p for p in sites["build"] if p[0].startswith("parallel/")]
        for cls in ("SingleRoundDetector", "IncrementalDetector"):
            assert {p for p, _ in sites[cls]} <= {
                "core/detector.py", "streaming/engine.py"
            }
        # One timer per round: run_fusion's RoundRecord.detection_seconds.
        clocks = [p for p, _ in sites["perf_counter"] if p == "core/detector.py"]
        assert clocks == []


class TestReachability:
    """A structural guard: side packages nothing reaches must not grow back,
    and imports run down the layer stack."""

    @staticmethod
    def imported(root, path):
        """The dotted names the module at ``path`` imports — module-level,
        function-level and ``TYPE_CHECKING`` imports alike — with relative
        imports resolved against its package under ``root``."""
        import ast
        from importlib.util import resolve_name

        package = ".".join(("repro", *path.relative_to(root).parts[:-1]))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = "." * node.level + (node.module or "")
                module = resolve_name(source, package)
                yield from (f"{module}.{alias.name}" for alias in node.names)

    def test_every_package_is_imported_from_the_cli_or_the_package_root(self):
        """Walking imports (module- and function-level) from ``repro.cli``,
        ``repro/__init__.py`` and ``repro/__main__.py`` reaches every
        package directory under ``src/repro``."""
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent

        def module_file(dotted):
            path = root.parent.joinpath(*dotted.split("."))
            for candidate in (path / "__init__.py", path.with_suffix(".py")):
                if candidate.is_file():
                    return candidate

        seen = set()
        todo = [root / name for name in ("__init__.py", "cli.py", "__main__.py")]
        while todo:
            path = todo.pop()
            if path not in seen:
                seen.add(path)
                for dotted in self.imported(root, path):
                    parts = dotted.split(".")  # importing a.b.c runs a and a.b too
                    prefixes = (".".join(parts[:n]) for n in range(1, len(parts) + 1))
                    todo.extend(filter(None, map(module_file, prefixes)))
        packages = {init.parent for init in root.rglob("__init__.py")}
        unreached = packages - {path.parent for path in seen}
        assert sorted(d.relative_to(root).as_posix() for d in unreached) == []

    #: The layer stack, lowest first: a layer imports only the layers
    #: before it.  ``serving`` sits below ``fusion``: the store keeps
    #: verdict tables and does not know how they were fused.
    LAYERS = (
        "data", "core", "cluster", "parallel", "serving", "fusion", "streaming", "cli",
    )
    #: The packages beside the stack, and what each may import.
    BESIDE = {
        "synth": {"data"},
        "sampling": {"data"},
        "eval": {*LAYERS[:6], "synth", "sampling"},
        "conformance": {*LAYERS[:6], "synth", "sampling"},
    }
    #: Imports against the order that stay, as (module, package).
    #: ``core/detector.py`` runs a partitioned round through
    #: ``repro.parallel``: the benchmark builds
    #: ``SingleRoundDetector(n_partitions=2)`` and wraps
    #: ``repro.parallel.detect_hybrid_parallel`` at call time, so the cut
    #: waits on the decision about the executors.
    LAYER_EXCEPTIONS = {("core/detector.py", "parallel")}

    def test_imports_run_down_the_layer_stack(self):
        """Every import of one ``repro`` package by another — at module
        level, in a function or under ``TYPE_CHECKING`` — goes down the
        stack, except the named ones, each of which must still exist."""
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        allowed = {
            layer: set(self.LAYERS[:rank]) for rank, layer in enumerate(self.LAYERS)
        }
        allowed.update(self.BESIDE)
        allowed["cli"] |= set(self.BESIDE)
        assert set(allowed) == {
            path.parent.name for path in root.glob("*/__init__.py")
        } | {"cli"}
        against = set()
        for path in root.rglob("*.py"):
            module = path.relative_to(root)
            layer = module.parts[0].removesuffix(".py")
            if layer in ("__init__", "__main__"):  # the package root: above all
                continue
            for dotted in self.imported(root, path):
                top, _, rest = dotted.partition(".")
                target = rest.split(".")[0]
                if top == "repro" and target not in (layer, *allowed[layer]):
                    against.add((module.as_posix(), target))
        assert against == self.LAYER_EXCEPTIONS

    #: Modules on the numpy product path: they gather from
    #: ``dataset.columns`` / ``index.columnar_entries()`` and must not
    #: walk the claims or the entry objects again.  The python reference
    #: modules (``index.py``, ``bound.py``, ``incremental.py``,
    #: ``accu.py``, ...) are deliberately not listed.
    COLUMNAR_MODULES = (
        "core/kernel.py",
        "core/bound_kernel.py",
        "core/incremental_kernel.py",
        "fusion/accu_kernel.py",
        "fusion/workspace.py",
        "serving/store.py",
    )

    @staticmethod
    def _object_walks(source: str) -> list[str]:
        """``dataset.providers`` / ``.claims`` / ``index.entries`` reads
        in a module, as ``line: expression`` strings.

        ``ColumnarEntries.from_index`` is exempt: it is the one bridge
        from a python-built index to columns (and the tests' oracle for
        a numpy-built one).  ``.providers`` is flagged on a ``dataset``
        only — ``ColumnarEntries.providers`` is the column the kernels
        are *supposed* to read.
        """
        import ast

        tree = ast.parse(source)
        exempt = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "from_index"
            for node in ast.walk(function)
        }
        found = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in exempt:
                continue
            owner = ast.unparse(node.value).rsplit(".", 1)[-1]
            if node.attr in ("claims", "entries") or (
                node.attr == "providers" and owner == "dataset"
            ):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        return found

    def test_the_columnar_modules_never_walk_claims_or_entries(self):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        walks = {
            module: self._object_walks((root / module).read_text())
            for module in self.COLUMNAR_MODULES
        }
        assert {m: found for m, found in walks.items() if found} == {}
        # The guard bites: the reads this rule retired, and their exemption.
        bad = "def f(dataset, index):\n    return dataset.providers, index.entries\n"
        assert self._object_walks(bad) == ["2: dataset.providers", "2: index.entries"]
        assert self._object_walks("x = self.dataset.claims") == ["1: self.dataset.claims"]
        assert self._object_walks("def from_index(i):\n    return i.entries\n") == []
        assert self._object_walks("p = cols.providers[cols.offsets[0]]") == []

    @staticmethod
    def _numpy_names(source: str) -> list[str]:
        """``np`` / ``numpy`` names inside ``_ServedSnapshot``'s read methods, as
        ``method:line`` strings."""
        import ast

        (snapshot,) = (
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name == "_ServedSnapshot"
        )
        bodies = [
            node
            for node in snapshot.body
            if isinstance(node, ast.FunctionDef) and node.name in ("_verdict", "_truth")
        ]
        assert sorted(node.name for node in bodies) == ["_truth", "_verdict"]
        return [
            f"{body.name}:{node.lineno}"
            for body in bodies
            for node in ast.walk(body)
            if isinstance(node, ast.Name) and node.id in ("np", "numpy")
        ]

    def test_a_served_read_builds_no_numpy_scalar(self):
        """A verdict or truth miss reads memoryviews of the snapshot
        columns (plain Python values out, no ``__array_function__``
        dispatch), so the two lookups name no NumPy at all."""
        from pathlib import Path

        import repro

        reader = (Path(repro.__file__).parent / "serving/reader.py").read_text()
        assert self._numpy_names(reader) == []
        # The guard bites: the parent's lookup.
        bad = (
            "class _ServedSnapshot:\n"
            "    def _verdict(self, key):\n"
            "        return int(np.searchsorted(self.keys, key))\n"
            "    def _truth(self, item):\n"
            "        return item\n"
        )
        assert self._numpy_names(bad) == ["_verdict:3"]
