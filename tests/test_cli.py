"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "gcd"])
        assert args.language == "c"
        assert args.variant == 0

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.num_tasks == 24
        assert args.output == "graphbinmatch.npz"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bad_language_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "gcd", "--language", "rust"])

    @pytest.mark.parametrize("argv", [
        ["train", "--source-langs", "jav", "--epochs", "1"],
        ["train", "--binary-langs", "c,jav", "--epochs", "1"],
        ["evaluate", "m.npz", "--binary-langs", "cc"],
        ["index", "build", "m.npz", "--languages", "jav"],
        ["corpus", "build", "--languages", "jav"],
        ["experiment", "run", "--source-langs", "jav", "--epochs", "1"],
    ])
    def test_unknown_language_exits_2_naming_supported(self, argv, tmp_path,
                                                       monkeypatch, capsys):
        # Every language-list flag is checked against the registry before
        # any corpus is built or any file is written.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--num-tasks", "2", "--variants", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown language" in err
        assert "supported: ['c', 'cpp', 'java']" in err
        assert list(tmp_path.iterdir()) == []


class TestTasksCommand:
    def test_lists_registry(self, capsys):
        assert main(["tasks"]) == 0
        out = capsys.readouterr().out
        assert "sum_array" in out
        assert "gcd" in out


class TestGenerateCommand:
    def test_generates_source(self, capsys):
        assert main(["generate", "sum_array", "--language", "java"]) == 0
        out = capsys.readouterr().out
        assert "sum_array/v0.java" in out
        assert "source graph" in out
        assert "decompiled graph" in out

    def test_show_ir(self, capsys):
        assert main(["generate", "gcd", "--show-ir"]) == 0
        out = capsys.readouterr().out
        assert "front-end IR" in out

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            main(["generate", "not_a_task"])


class TestAnalyzeCommand:
    def test_text_report(self, capsys):
        assert main(["analyze", "gcd", "--opt-level", "O2"]) == 0
        out = capsys.readouterr().out
        assert "gcd/v0.c @ O2" in out
        assert "cross-block def-use edges" in out
        assert "live-in" in out
        assert "summary @gcd" in out
        assert "verifier findings: 0" in out

    def test_json_report(self, capsys):
        import json

        assert main(["analyze", "gcd", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["module"] == "gcd/v0.c"
        assert report["findings"] == []
        assert {f["name"] for f in report["functions"]} >= {"gcd", "main"}
        assert report["summaries"]["printf"]["defined"] is False

    def test_function_filter(self, capsys):
        assert main(["analyze", "gcd", "--function", "gcd"]) == 0
        out = capsys.readouterr().out
        assert "@gcd:" in out and "@main:" not in out

    def test_unknown_function_errors(self, capsys):
        assert main(["analyze", "gcd", "--function", "nope"]) == 1
        assert "no defined function" in capsys.readouterr().err


class TestTrainEvaluateRetrieve:
    """End-to-end CLI pipeline at minimum scale (one tiny model)."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        rc = main([
            "train",
            "--num-tasks", "6",
            "--variants", "1",
            "--epochs", "2",
            "--output", str(path),
        ])
        assert rc == 0
        return path

    def test_train_writes_checkpoint(self, checkpoint):
        assert checkpoint.exists()

    def test_evaluate_prints_metrics(self, checkpoint, capsys):
        rc = main([
            "evaluate", str(checkpoint),
            "--num-tasks", "6", "--variants", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "precision=" in out
        assert "f1=" in out

    def test_retrieve_prints_metrics(self, checkpoint, capsys):
        rc = main(["retrieve", str(checkpoint), "--num-tasks", "4", "--queries", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MRR=" in out


class TestIndexParser:
    def test_build_defaults(self):
        args = build_parser().parse_args(["index", "build", "model.npz"])
        assert args.index_command == "build"
        assert args.output == "index"
        assert args.shard_size == 0
        assert args.languages == ["java"]

    def test_query_defaults(self):
        args = build_parser().parse_args(["index", "query", "model.npz", "index"])
        assert args.index_command == "query"
        assert args.top_k == 5

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "model.npz", "index"])
        assert args.command == "serve"
        assert args.batch == 8
        assert args.top_k == 5
        assert not hasattr(args, "store")

    def test_store_flag_rejected(self):
        # The query front end never touches an artifact store.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "model.npz", "index", "--store", "art"]
            )

    def test_index_build_shard_size(self):
        args = build_parser().parse_args(
            ["index", "build", "model.npz", "--shard-size", "4"]
        )
        assert args.shard_size == 4

    def test_requires_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "model.npz"])


class TestCorpusParser:
    def test_build_defaults(self):
        args = build_parser().parse_args(["corpus", "build"])
        assert args.corpus_command == "build"
        assert args.languages == ["c", "java"]
        assert args.store is None
        assert args.parallel == 0

    def test_stats_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["corpus", "stats"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["corpus"])


class TestCorpusCommands:
    def test_build_reports_stats_and_stages(self, capsys):
        rc = main(["corpus", "build", "--num-tasks", "3", "--variants", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "built" in out and "Table-I statistics" in out
        assert "per-stage wall clock" in out
        assert "codegen" in out and "decompile" in out

    def test_build_cold_then_warm_store(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        argv = [
            "corpus", "build", "--num-tasks", "3", "--variants", "1",
            "--languages", "c", "--store", store,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "artifact store: 0 hits" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert ", 0 misses" in warm

    def test_build_parallel(self, tmp_path, capsys):
        rc = main([
            "corpus", "build", "--num-tasks", "3", "--variants", "1",
            "--languages", "c", "--store", str(tmp_path / "artifacts"),
            "--parallel", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallel x2" in out

    def test_stats_command(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main([
            "corpus", "build", "--num-tasks", "2", "--variants", "1",
            "--languages", "c", "--store", store,
        ]) == 0
        capsys.readouterr()
        assert main(["corpus", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "size:" in out


class TestIndexCommands:
    """Build and query an embedding index through the CLI."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-index") / "model.npz"
        rc = main([
            "train",
            "--num-tasks", "6",
            "--variants", "1",
            "--epochs", "2",
            "--output", str(path),
        ])
        assert rc == 0
        return path

    @pytest.fixture(scope="class")
    def index_path(self, checkpoint, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-index") / "index"
        rc = main([
            "index", "build", str(checkpoint),
            "--output", str(path),
            "--num-tasks", "6",
            "--variants", "1",
        ])
        assert rc == 0
        return path

    def test_build_writes_index(self, index_path, capsys):
        """Without --shard-size the build is a one-shard index directory."""
        manifest = json.loads((index_path / "manifest.json").read_text())
        assert len(manifest["shards"]) == 1
        assert manifest["shards"][0]["entries"] == 6
        assert sorted(p.name for p in index_path.glob("shard-*")) == ["shard-0000.npz"]

    def test_codec_needs_no_shard_size(self, checkpoint, tmp_path, capsys):
        out_path = tmp_path / "idx"
        rc = main([
            "index", "build", str(checkpoint),
            "--output", str(out_path),
            "--num-tasks", "4", "--variants", "1",
            "--codec", "int8",
        ])
        assert rc == 0
        assert "(1 shards, codec=int8)" in capsys.readouterr().out
        manifest = json.loads((out_path / "manifest.json").read_text())
        assert manifest["codec"] == "int8" and len(manifest["shards"]) == 1
        rc = main([
            "index", "query", str(checkpoint), str(out_path),
            "--task", "gcd", "--language", "c", "--top-k", "2",
        ])
        assert rc == 0

    def test_build_reports_counts(self, checkpoint, tmp_path, capsys):
        out_path = tmp_path / "idx"
        rc = main([
            "index", "build", str(checkpoint),
            "--output", str(out_path),
            "--num-tasks", "4",
            "--variants", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "indexed" in out
        assert "encoded" in out

    def test_query_ranks_candidates(self, checkpoint, index_path, capsys):
        rc = main([
            "index", "query", str(checkpoint), str(index_path),
            "--task", "gcd",
            "--language", "c",
            "--top-k", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query: gcd/v0.c" in out
        # three ranked lines with scores
        ranked = [l for l in out.splitlines() if l.strip().startswith(("1.", "2.", "3."))]
        assert len(ranked) == 3

    @pytest.fixture(scope="class")
    def sharded_path(self, checkpoint, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-index") / "sharded"
        rc = main([
            "index", "build", str(checkpoint),
            "--output", str(path),
            "--num-tasks", "6",
            "--variants", "1",
            "--shard-size", "2",
        ])
        assert rc == 0
        return path

    def test_build_sharded_directory(self, sharded_path):
        assert (sharded_path / "manifest.json").exists()
        assert (sharded_path / "shard-0000.npz").exists()

    def test_negative_shard_size_rejected(self, checkpoint, tmp_path):
        """A negative --shard-size must error, not silently go monolithic."""
        with pytest.raises(ValueError, match="shard_entries"):
            main([
                "index", "build", str(checkpoint),
                "--output", str(tmp_path / "idx"),
                "--num-tasks", "4", "--variants", "1",
                "--shard-size", "-2",
            ])

    def test_rebuild_sharded_overwrites(self, checkpoint, sharded_path):
        """Re-running index build on the same directory must not crash."""
        rc = main([
            "index", "build", str(checkpoint),
            "--output", str(sharded_path),
            "--num-tasks", "4",
            "--variants", "1",
            "--shard-size", "3",
        ])
        assert rc == 0
        import json as json_mod

        manifest = json_mod.loads((sharded_path / "manifest.json").read_text())
        # Old shard files from the size-2 build are gone, not orphaned.
        on_disk = sorted(p.name for p in sharded_path.glob("shard-*.npz"))
        assert on_disk == sorted(s["file"] for s in manifest["shards"])

    def test_query_sharded_index(self, checkpoint, sharded_path, capsys):
        rc = main([
            "index", "query", str(checkpoint), str(sharded_path),
            "--task", "gcd", "--language", "c", "--top-k", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        ranked = [l for l in out.splitlines() if l.strip().startswith(("1.", "2."))]
        assert len(ranked) == 2

    def test_serve_command_round_trip(
        self, checkpoint, index_path, capsys, monkeypatch
    ):
        """repro serve: JSON-lines in on stdin, ranked hits out on stdout."""
        import io
        import json
        import sys

        from repro.core.pipeline import compile_to_views
        from repro.lang.generator import SolutionGenerator

        import base64

        sf = SolutionGenerator(seed=0, independent=True).generate("gcd", 0, "c")
        views = compile_to_views(sf.text, "c", name=sf.identifier)
        requests = "".join(
            json.dumps(r) + "\n"
            for r in (
                {
                    "id": "bin",
                    "binary_b64": base64.b64encode(views.binary_bytes).decode(),
                    "k": 3,
                },
                {"id": "src", "source": sf.text, "language": "c", "k": 2},
                {"id": "oops"},
            )
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        rc = main([
            "serve", str(checkpoint), str(index_path), "--batch", "2",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert [l["id"] for l in lines] == ["bin", "src", "oops"]
        assert len(lines[0]["hits"]) == 3
        assert len(lines[1]["hits"]) == 2
        assert "error" in lines[2]
        assert "served 3 requests" in captured.err


class TestExperimentCommand:
    ARGS = ["--binary-langs", "c", "--source-langs", "java",
            "--num-tasks", "6", "--variants", "1", "--epochs", "2"]

    def test_run_defaults(self):
        args = build_parser().parse_args(["experiment", "run"])
        assert args.num_tasks == 12
        assert args.epochs == 12

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_run_without_store_trains(self, capsys):
        assert main(["experiment", "run", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "trained" in out
        assert "no store" in out
        assert "f1=" in out

    def test_run_cold_then_warm_identical_rows(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "models")]
        assert main(["experiment", "run", *self.ARGS, *store]) == 0
        cold_out = capsys.readouterr().out
        assert "trained" in cold_out
        assert main(["experiment", "run", *self.ARGS, *store]) == 0
        warm_out = capsys.readouterr().out
        assert "cache hit" in warm_out
        # Identical metric rows from the reloaded trainer.
        assert cold_out.splitlines()[-1] == warm_out.splitlines()[-1]

    def test_list_shows_entries(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "models")]
        assert main(["experiment", "run", *self.ARGS, "--name", "listed", *store]) == 0
        capsys.readouterr()
        assert main(["experiment", "list", str(tmp_path / "models")]) == 0
        out = capsys.readouterr().out
        assert "1 experiments" in out
        assert "listed" in out
        assert "valid_f1=" in out
