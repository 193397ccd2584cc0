"""The one-call experiment suite and its CLI subcommand."""

import pytest

from repro.core import CopyParams
from repro.eval import DEFAULT_METHODS, run_suite
from repro.synth import make_profile


@pytest.fixture(scope="module")
def world():
    return make_profile("book_cs", scale=0.08, seed=13)


@pytest.fixture(scope="module")
def suite(world):
    return run_suite(world.dataset, CopyParams(), seed=3)


class TestSuite:
    def test_runs_all_default_methods(self, suite):
        assert set(suite.runs) == set(DEFAULT_METHODS)

    def test_quality_rows_reference_pairwise(self, suite, world):
        rows = suite.quality_rows(world.dataset, world.gold)
        by_method = {row[0]: row for row in rows}
        assert by_method["pairwise"][3] == 1.0  # F vs itself
        assert by_method["index"][3] == 1.0  # INDEX == PAIRWISE

    def test_time_rows_complete(self, suite):
        rows = suite.time_rows()
        assert len(rows) == len(DEFAULT_METHODS)
        for _, seconds, computations, rounds, _ in rows:
            assert seconds >= 0.0
            assert computations > 0
            assert rounds >= 1

    def test_render(self, suite, world):
        text = suite.render(world.dataset, world.gold)
        assert "Copy-detection quality" in text
        assert "Detection cost" in text
        assert "incremental" in text

    def test_quality_requires_pairwise(self, world):
        partial = run_suite(world.dataset, CopyParams(), methods=("index",))
        with pytest.raises(ValueError, match="pairwise"):
            partial.quality_rows(world.dataset, world.gold)

    def test_custom_method_subset(self, world):
        suite = run_suite(
            world.dataset, CopyParams(), methods=("pairwise", "hybrid")
        )
        assert set(suite.runs) == {"pairwise", "hybrid"}


class TestCliBench:
    def test_bench_subcommand(self, tmp_path, capsys, world):
        from repro.cli import main
        from repro.data import save_claims, save_gold

        claims = tmp_path / "claims.csv"
        gold = tmp_path / "gold.csv"
        save_claims(world.dataset, claims)
        save_gold(world.gold, gold)
        code = main(
            [
                "bench",
                str(claims),
                "--gold",
                str(gold),
                "--methods",
                "pairwise,index,incremental",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Detection cost" in out
        assert "total wall time" in out

    def test_sample_fraction_reaches_the_sampled_methods(
        self, tmp_path, capsys, monkeypatch, world
    ):
        import repro.eval.suite as suite_module
        from repro.cli import main
        from repro.data import save_claims

        seen = []
        real = suite_module.run_method

        def spy(method, dataset, params, **kwargs):
            seen.append((method, kwargs["sample_fraction"]))
            return real(method, dataset, params, **kwargs)

        monkeypatch.setattr(suite_module, "run_method", spy)
        claims = tmp_path / "claims.csv"
        save_claims(world.dataset, claims)
        code = main(
            ["bench", str(claims), "--methods", "pairwise,sample1",
             "--sample-fraction", "0.25"]
        )
        assert code == 0
        assert seen == [("pairwise", 0.25), ("sample1", 0.25)]
        assert "sample1" in capsys.readouterr().out
