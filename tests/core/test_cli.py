"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.coverage.io import write_edge_list
from repro.datasets import planted_kcover_instance


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kcover_defaults(self):
        args = build_parser().parse_args(["kcover"])
        assert args.command == "kcover"
        assert args.k == 10
        assert args.generator == "planted_kcover"

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kcover", "--generator", "magic"])


class TestCommands:
    def test_kcover_on_generated_instance(self):
        code, output = _run(
            ["kcover", "--num-sets", "40", "--num-elements", "800", "--k", "4",
             "--seed", "3", "--scale", "0.2"]
        )
        assert code == 0
        assert "sketch-kcover" in output
        assert "offline-greedy" in output

    def test_kcover_with_baselines(self):
        code, output = _run(
            ["kcover", "--num-sets", "30", "--num-elements", "500", "--k", "3",
             "--baselines", "--seed", "1"]
        )
        assert code == 0
        assert "saha-getoor" in output and "sieve-streaming" in output

    def test_setcover_command(self):
        code, output = _run(
            ["setcover", "--generator", "planted_setcover", "--num-sets", "30",
             "--num-elements", "400", "--k", "5", "--rounds", "2", "--seed", "2"]
        )
        assert code == 0
        assert "sketch-setcover" in output

    def test_outliers_command(self):
        code, output = _run(
            ["outliers", "--generator", "planted_setcover", "--num-sets", "30",
             "--num-elements", "400", "--k", "5", "--outlier-fraction", "0.1", "--seed", "2"]
        )
        assert code == 0
        assert "sketch-outliers" in output

    def test_sketch_command(self):
        code, output = _run(
            ["sketch", "--num-sets", "30", "--num-elements", "600", "--k", "4",
             "--scale", "0.2", "--seed", "5"]
        )
        assert code == 0
        assert "stored edges" in output
        assert "threshold p*" in output

    def test_generate_then_consume_file(self, tmp_path):
        output_file = tmp_path / "workload.tsv"
        code, message = _run(
            ["generate", "--num-sets", "25", "--num-elements", "300", "--k", "4",
             "--output", str(output_file), "--seed", "7"]
        )
        assert code == 0
        assert output_file.exists()
        assert "wrote" in message
        code, output = _run(["kcover", "--edges", str(output_file), "--k", "4", "--seed", "7"])
        assert code == 0
        assert "sketch-kcover" in output

    def test_kcover_from_edge_file_matches_generator_graph(self, tmp_path):
        instance = planted_kcover_instance(20, 250, k=3, seed=9)
        path = tmp_path / "edges.tsv"
        write_edge_list(instance.graph.edges(), path)
        code, output = _run(["sketch", "--edges", str(path), "--k", "3"])
        assert code == 0
        assert str(instance.num_edges) in output

    def test_error_exit_code_on_missing_file(self, tmp_path):
        code, _ = _run(["kcover", "--edges", str(tmp_path / "missing.tsv")])
        assert code == 2


class TestRegistryCommands:
    def test_list_solvers(self):
        code, output = _run(["list-solvers"])
        assert code == 0
        for name in ("kcover/sketch", "setcover/sketch", "outliers/sketch",
                     "offline/greedy", "kcover/distributed"):
            assert name in output

    def test_generate_list_datasets(self):
        code, output = _run(["generate", "--list"])
        assert code == 0
        for name in ("planted_kcover", "planted_setcover", "uniform", "zipf",
                     "blog_watch"):
            assert name in output

    def test_generate_without_output_or_list_fails(self):
        code, _ = _run(["generate"])
        assert code == 2

    def test_registered_dataset_available_as_generator(self):
        code, output = _run(
            ["kcover", "--generator", "uniform", "--num-sets", "20",
             "--num-elements", "200", "--k", "3", "--seed", "4"]
        )
        assert code == 0
        assert "sketch-kcover" in output


class TestFacadeEquivalence:
    """The migrated CLI must produce the exact tables the hand-wired one did."""

    def test_kcover_table_matches_legacy_wiring(self):
        from repro.baselines import SahaGetoorKCover, SieveStreamingKCover
        from repro.core import StreamingKCover
        from repro.datasets import planted_kcover_instance
        from repro.offline.greedy import greedy_k_cover
        from repro.streaming import EdgeStream, SetStream, StreamingRunner
        from repro.utils.tables import Table

        num_sets, num_elements, k, seed = 30, 500, 3, 1
        graph = planted_kcover_instance(num_sets, num_elements, k=k, seed=seed).graph

        # The pre-registry pipeline, wired by hand exactly as cli.py used to.
        runner = StreamingRunner(graph)
        table = Table(["algorithm", "coverage", "fraction", "size", "passes", "space"])
        algo = StreamingKCover(
            graph.num_sets, max(1, graph.num_elements), k=k,
            epsilon=0.2, scale=0.1, seed=seed,
        )
        report = runner.run(algo, EdgeStream.from_graph(graph, order="random", seed=seed))
        table.add_row(algorithm="sketch-kcover", coverage=report.coverage,
                      fraction=report.coverage_fraction, size=report.solution_size,
                      passes=report.passes, space=report.space_peak)
        for name, baseline in (
            ("saha-getoor", SahaGetoorKCover(k=k)),
            ("sieve-streaming", SieveStreamingKCover(k=k, epsilon=0.1)),
        ):
            rep = runner.run(baseline, SetStream.from_graph(graph, order="random", seed=seed))
            table.add_row(algorithm=name, coverage=rep.coverage, fraction=rep.coverage_fraction,
                          size=rep.solution_size, passes=rep.passes, space=rep.space_peak)
        greedy = greedy_k_cover(graph, k)
        table.add_row(algorithm="offline-greedy", coverage=greedy.coverage,
                      fraction=graph.coverage_fraction(greedy.selected),
                      size=greedy.size, passes="-", space=graph.num_edges)
        legacy = table.to_grid() + "\n"

        code, output = _run(
            ["kcover", "--num-sets", str(num_sets), "--num-elements", str(num_elements),
             "--k", str(k), "--baselines", "--seed", str(seed)]
        )
        assert code == 0
        assert output == legacy

    def test_setcover_table_matches_legacy_wiring(self):
        from repro.core import StreamingSetCover
        from repro.datasets import planted_setcover_instance
        from repro.offline.greedy import greedy_set_cover
        from repro.streaming import EdgeStream, StreamingRunner
        from repro.utils.tables import Table

        num_sets, num_elements, k, seed, rounds = 30, 400, 5, 2, 2
        graph = planted_setcover_instance(
            num_sets, num_elements, cover_size=max(2, k), seed=seed
        ).graph

        runner = StreamingRunner(graph)
        algo = StreamingSetCover(
            graph.num_sets, max(1, graph.num_elements), epsilon=0.5,
            rounds=rounds, scale=0.1, seed=seed, max_guesses=14,
        )
        report = runner.run(algo, EdgeStream.from_graph(graph, order="random", seed=seed))
        greedy = greedy_set_cover(graph, allow_partial=True)
        table = Table(["algorithm", "cover_size", "fraction", "passes", "space"])
        table.add_row(algorithm="sketch-setcover", cover_size=report.solution_size,
                      fraction=report.coverage_fraction, passes=report.passes,
                      space=report.space_peak)
        table.add_row(algorithm="offline-greedy", cover_size=greedy.size, fraction=1.0,
                      passes="-", space=graph.num_edges)
        legacy = table.to_grid() + "\n"

        code, output = _run(
            ["setcover", "--generator", "planted_setcover", "--num-sets", str(num_sets),
             "--num-elements", str(num_elements), "--k", str(k),
             "--rounds", str(rounds), "--seed", str(seed)]
        )
        assert code == 0
        assert output == legacy


class TestCoverageBackendAndColumnar:
    def test_kcover_backend_matches_default_table(self):
        args = ["kcover", "--num-sets", "30", "--num-elements", "500", "--k", "3",
                "--seed", "1", "--scale", "0.2"]
        code_default, default_output = _run(args)
        code_words, words_output = _run(args + ["--coverage-backend", "words"])
        assert code_default == code_words == 0
        # The word kernel changes how the greedy reference is evaluated, not
        # what it finds: identical tables.
        assert words_output == default_output

    def test_backend_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kcover", "--coverage-backend", "nibbles"])

    @pytest.mark.parametrize(
        "command", ["kcover", "setcover", "outliers", "distributed", "serve", "query"]
    )
    def test_removed_byte_layout_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--coverage-backend", "bytes"])
        assert excinfo.value.code == 2
        assert "'auto', 'words'" in capsys.readouterr().err

    def test_serve_executor_choices_come_from_the_driver(self, capsys):
        from repro.serve.driver import SHARED_MEMORY_EXECUTORS

        for executor in SHARED_MEMORY_EXECUTORS:
            args = build_parser().parse_args(["serve", "--executor", executor])
            assert args.executor == executor
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--executor", "process"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    def test_generate_columnar_then_consume_directory(self, tmp_path):
        columnar_dir = tmp_path / "workload.cols"
        code, message = _run(
            ["generate", "--num-sets", "25", "--num-elements", "300", "--k", "4",
             "--output", str(columnar_dir), "--format", "columnar", "--seed", "7"]
        )
        assert code == 0
        assert "wrote" in message
        assert (columnar_dir / "meta.json").exists()
        code, output = _run(["kcover", "--edges", str(columnar_dir), "--k", "4", "--seed", "7"])
        assert code == 0
        assert "sketch-kcover" in output

    def test_distributed_command_on_generated_instance(self):
        code, output = _run(
            ["distributed", "--num-sets", "30", "--num-elements", "400", "--k", "3",
             "--machines", "3", "--seed", "5", "--scale", "0.3"]
        )
        assert code == 0
        assert "machines" in output
        assert "machine_load_mean" in output
        assert "merged_threshold" in output

    def test_distributed_columnar_agrees_with_graph_input(self, tmp_path):
        """A columnar --edges dir (batched map phase) matches the text input."""
        instance = planted_kcover_instance(20, 250, k=3, seed=9)
        text = tmp_path / "edges.tsv"
        write_edge_list(instance.graph.edges(), text)
        from repro.coverage.io import columnar_from_edge_list

        columnar_from_edge_list(text, tmp_path / "cols")
        args = ["--k", "3", "--machines", "2", "--strategy", "row_range",
                "--seed", "2", "--scale", "0.3", "--coverage-backend", "words"]
        code_text, from_text = _run(["distributed", "--edges", str(text)] + args)
        code_cols, from_cols = _run(
            ["distributed", "--edges", str(tmp_path / "cols")] + args
        )
        assert code_text == code_cols == 0
        assert from_cols == from_text

    def test_distributed_strategy_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["distributed", "--strategy", "hash-ring"])

    def test_columnar_and_text_inputs_agree(self, tmp_path):
        instance = planted_kcover_instance(20, 250, k=3, seed=9)
        text = tmp_path / "edges.tsv"
        write_edge_list(instance.graph.edges(), text)
        from repro.coverage.io import columnar_from_edge_list

        columnar_from_edge_list(text, tmp_path / "cols")
        code_text, from_text = _run(["kcover", "--edges", str(text), "--k", "3", "--seed", "2"])
        code_cols, from_cols = _run(
            ["kcover", "--edges", str(tmp_path / "cols"), "--k", "3", "--seed", "2"]
        )
        assert code_text == code_cols == 0
        assert from_cols == from_text
