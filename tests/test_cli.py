"""CLI subcommands exercised through main(argv)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    code = main(
        ["generate", "book_cs", "--scale", "0.08", "--seed", "3", "-o", str(out)]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_files(self, dataset_dir):
        assert (dataset_dir / "claims.csv").exists()
        assert (dataset_dir / "gold.csv").exists()

    def test_output_mentions_profile(self, dataset_dir, capsys):
        main(["generate", "book_cs", "--scale", "0.05", "-o", str(dataset_dir)])
        captured = capsys.readouterr().out
        assert "book_cs" in captured
        assert "planted copying pairs" in captured


class TestStats:
    def test_prints_counts(self, dataset_dir, capsys):
        assert main(["stats", str(dataset_dir / "claims.csv")]) == 0
        out = capsys.readouterr().out
        assert "sources" in out
        assert "index-entries" in out


class TestDetect:
    @pytest.mark.parametrize("method", ["pairwise", "index", "hybrid"])
    def test_methods_run(self, dataset_dir, capsys, method):
        code = main(
            ["detect", str(dataset_dir / "claims.csv"), "--method", method]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Copying detected" in out
        assert "computations" in out


class TestDetectParallel:
    """--n-partitions/--executor/--reduce round-trips."""

    def _rows(self, text):
        return [line for line in text.splitlines() if line.count("|") >= 4]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_hybrid_processes_matches_sequential(
        self, dataset_dir, capsys, backend
    ):
        """detect_hybrid_parallel on a real process pool, via the CLI."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        claims = str(dataset_dir / "claims.csv")
        code = main(
            [
                "detect", claims, "--method", "hybrid", "--backend", backend,
                "--n-partitions", "4", "--executor", "processes",
                "--reduce", "tree",
            ]
        )
        assert code == 0
        parallel_out = capsys.readouterr().out
        assert main(["detect", claims, "--method", "hybrid"]) == 0
        sequential_out = capsys.readouterr().out
        assert self._rows(parallel_out) == self._rows(sequential_out)

    @pytest.mark.parametrize("reduce", ["flat", "tree"])
    def test_index_flag_grid(self, dataset_dir, capsys, reduce):
        claims = str(dataset_dir / "claims.csv")
        code = main(
            [
                "detect", claims, "--method", "index",
                "--n-partitions", "3", "--reduce", reduce,
            ]
        )
        assert code == 0
        parallel_out = capsys.readouterr().out
        assert main(["detect", claims, "--method", "index"]) == 0
        sequential_out = capsys.readouterr().out
        assert self._rows(parallel_out) == self._rows(sequential_out)

    def test_single_partition_ignores_executor(self, dataset_dir, capsys):
        """--n-partitions 1 keeps the sequential path."""
        claims = str(dataset_dir / "claims.csv")
        code = main(
            ["detect", claims, "--method", "hybrid", "--n-partitions", "1"]
        )
        assert code == 0
        assert "Copying detected" in capsys.readouterr().out

    def test_partitioning_rejected_for_bound_methods(self, dataset_dir):
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit):
            main(["detect", claims, "--method", "bound", "--n-partitions", "2"])

    def test_bad_reduce_rejected(self, dataset_dir):
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit):
            main(["detect", claims, "--reduce", "sum"])


class TestParallelFlagValidation:
    """detect and fuse check the partition flags through one helper,
    before anything acts on them."""

    @staticmethod
    def _exit_message(argv) -> str:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        return str(exit_info.value)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "index", "--executor", "processes"],
             "--executor requires --n-partitions > 1"),
            (["--method", "bound", "--executor", "processes"],
             "supports methods index/hybrid, not 'bound'"),
            (["--method", "bound", "--n-partitions", "2"],
             "supports methods index/hybrid, not 'bound'"),
            (["--method", "index", "--n-partitions", "0"],
             "--n-partitions must be >= 1"),
            (["--method", "index", "--reduce", "tree"],
             "--reduce requires --n-partitions > 1"),
            (["--method", "index", "--n-partitions", "2", "--workers",
              "127.0.0.1:1"],
             "--workers requires --executor remote"),
        ],
    )
    def test_same_exit_message_on_both_commands(self, dataset_dir, flags, message):
        """`detect --executor processes` used to run sequentially without
        a word while `fuse` refused the same flags; `--reduce tree` on one
        partition and `--workers` off the remote executor ran on both,
        exit 0, as if the flag had applied."""
        claims = str(dataset_dir / "claims.csv")
        on_detect = self._exit_message(["detect", claims, *flags])
        on_fuse = self._exit_message(["fuse", claims, *flags])
        assert message in on_detect
        assert on_detect == on_fuse

    @pytest.mark.parametrize("command", ["detect", "fuse"])
    def test_method_is_rejected_before_any_worker_is_dialed(
        self, dataset_dir, command
    ):
        """A closed port would surface as a connection error if the
        cluster were dialed first."""
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            closed_port = probe.getsockname()[1]
        message = self._exit_message(
            [command, str(dataset_dir / "claims.csv"), "--method", "bound",
             "--n-partitions", "2", "--executor", "remote",
             "--workers", f"127.0.0.1:{closed_port}"]
        )
        assert "supports methods index/hybrid, not 'bound'" in message


class TestFuseParallel:
    """--n-partitions/--executor/--reduce on fuse."""

    def _stable_lines(self, text):
        """Output lines unaffected by timing (pairs, accuracy, truths)."""
        return [
            line
            for line in text.splitlines()
            if line.startswith(("copying pairs", "fusion accuracy"))
            or line.count("|") >= 2
        ]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("reduce", ["flat", "tree"])
    def test_index_round_trip(self, dataset_dir, capsys, backend, reduce):
        if backend == "numpy":
            pytest.importorskip("numpy")
        claims = str(dataset_dir / "claims.csv")
        gold = str(dataset_dir / "gold.csv")
        base = ["fuse", claims, "--gold", gold, "--method", "index",
                "--backend", backend, "--truths", "5"]
        code = main(
            base + ["--n-partitions", "3", "--reduce", reduce,
                    "--executor", "threads"]
        )
        assert code == 0
        parallel_out = capsys.readouterr().out
        assert main(base) == 0
        sequential_out = capsys.readouterr().out
        assert self._stable_lines(parallel_out) == self._stable_lines(
            sequential_out
        )

    def test_hybrid_processes_round_trip(self, dataset_dir, capsys):
        """fuse on a real process pool (persistent across rounds)."""
        pytest.importorskip("numpy")
        claims = str(dataset_dir / "claims.csv")
        base = ["fuse", claims, "--method", "hybrid", "--backend", "numpy"]
        code = main(
            base + ["--n-partitions", "4", "--executor", "processes",
                    "--reduce", "tree"]
        )
        assert code == 0
        parallel_out = capsys.readouterr().out
        assert main(base) == 0
        sequential_out = capsys.readouterr().out
        assert self._stable_lines(parallel_out) == self._stable_lines(
            sequential_out
        )

    @pytest.mark.parametrize("method", ["incremental", "none", "pairwise"])
    def test_partitioning_rejected_for_non_parallel_methods(
        self, dataset_dir, method
    ):
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit):
            main(["fuse", claims, "--method", method, "--n-partitions", "2"])

    def test_bad_reduce_rejected(self, dataset_dir):
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit):
            main(["fuse", claims, "--reduce", "sum"])

    def test_executor_without_partitions_rejected(self, dataset_dir):
        """A pool request with a single partition would silently run
        sequentially; fuse refuses instead."""
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit):
            main(["fuse", claims, "--method", "index", "--executor", "processes"])


class TestFuse:
    def test_numpy_fusion_backend_matches_python(self, dataset_dir, capsys):
        """--backend numpy routes the ACCU/ACCUCOPY updates through the
        columnar kernel; fused truths and verdicts match the reference."""
        pytest.importorskip("numpy")
        claims = str(dataset_dir / "claims.csv")
        gold = str(dataset_dir / "gold.csv")
        base = ["fuse", claims, "--gold", gold, "--method", "incremental",
                "--truths", "5"]
        assert main(base + ["--backend", "numpy"]) == 0
        numpy_out = capsys.readouterr().out
        assert main(base) == 0
        python_out = capsys.readouterr().out

        def stable(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("copying pairs", "fusion accuracy"))
                or line.count("|") >= 2
            ]

        assert stable(numpy_out) == stable(python_out)

    def test_incremental_with_gold(self, dataset_dir, capsys):
        code = main(
            [
                "fuse",
                str(dataset_dir / "claims.csv"),
                "--gold",
                str(dataset_dir / "gold.csv"),
                "--method",
                "incremental",
                "--truths",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fusion accuracy" in out
        assert "copying pairs" in out
        assert "Fused truths" in out

    def test_no_detector(self, dataset_dir, capsys):
        code = main(["fuse", str(dataset_dir / "claims.csv"), "--method", "none"])
        assert code == 0
        assert "rounds=" in capsys.readouterr().out


class TestQuery:
    @pytest.fixture(scope="class")
    def store(self, dataset_dir, tmp_path_factory):
        store = tmp_path_factory.mktemp("query") / "store"
        claims = str(dataset_dir / "claims.csv")
        assert main(["fuse", claims, "--store", str(store), "--max-rounds", "2",
                     "--gold", str(dataset_dir / "gold.csv")]) == 0
        return str(store)

    def test_store_flag_keeps_the_fuse_flags(self, store, dataset_dir):
        """``fuse --store`` is ``fuse``: --gold worked above, and the
        partition flags are validated as on a store-less run (the
        ``serve-snapshot`` copy it replaced had neither)."""
        claims = str(dataset_dir / "claims.csv")
        with pytest.raises(SystemExit, match="supports methods index/hybrid"):
            main(["fuse", claims, "--store", store, "--executor", "threads"])

    def test_pair_with_one_source_twice_exits_cleanly(self, store):
        with pytest.raises(SystemExit, match="a pair needs two distinct sources"):
            main(["query", store, "--pair", "0", "0"])

    def test_pair_out_of_range_exits_cleanly(self, store):
        with pytest.raises(SystemExit, match="source 99999 out of range for a"):
            main(["query", store, "--pair", "0", "99999"])


class TestConformance:
    def test_smoke_run_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "sub" / "report.json"
        code = main(
            [
                "conformance", "--smoke", "--cases", "26", "--seed", "19",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "zero divergences" in out
        assert "contract" in out
        import json

        payload = json.loads(report_path.read_text())
        assert payload["version"] == 1
        assert payload["ok"] is True
        assert payload["cases"] == 26

    def test_divergence_sets_exit_code_and_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
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
        # A tiny grid that hits the corrupted numpy fusion path: case
        # indices cycle configs, so a pure-fusion sweep is guaranteed to
        # run the broken kernel.
        from repro.conformance import CaseConfig

        monkeypatch.setattr(
            "repro.conformance.engine.GRIDS",
            {"smoke": lambda: [CaseConfig("fusion", "none", rounds=2)]},
        )
        code = main(
            [
                "conformance", "--smoke", "--cases", "2", "--seed", "13",
                "--corpus", str(tmp_path / "corpus"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert list((tmp_path / "corpus").glob("*.json"))

    def test_unknown_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["conformance", "--grid", "nope"])

    def test_parser_build_never_imports_heavy_modules(self):
        """Every subcommand pays build_parser's cost: it must not pull
        in the conformance engine or hypothesis (a slow test-only dep)."""
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; "
                "from repro.cli import build_parser; build_parser(); "
                "assert 'hypothesis' not in sys.modules; "
                "assert 'repro.conformance' not in sys.modules",
            ],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_grid_choices_stay_in_sync_with_engine(self):
        """build_parser hardcodes --grid choices (so the parser never
        imports the conformance engine); this pins them to GRIDS."""
        from repro.cli import build_parser
        from repro.conformance.engine import GRIDS

        parser = build_parser()
        conf = next(
            action
            for action in parser._subparsers._group_actions[0].choices[
                "conformance"
            ]._actions
            if action.dest == "grid"
        )
        assert sorted(conf.choices) == sorted(GRIDS)


class TestParsing:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "nope"])
