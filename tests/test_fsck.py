"""Tests for `repro fsck`: classification, quarantine, and repair.

The invariants under test: a healthy store scans clean; deliberate
corruption is classified (never silently passed); quarantine moves the
damage out of the store's namespace; artifact repair re-derives the entry
through the content-addressed pipeline and lands bit-identical bytes.
"""

import json
import shutil

import pytest

from repro.artifacts import ArtifactStore
from repro.cli import main
from repro.config import DataConfig, cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.eval.experiments import build_crosslang_dataset
from repro.exec import ExperimentSpec, ModelStore, run_experiment
from repro.fsck import detect_kind, fsck
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    """A small corpus-backed artifact store (pristine; tests copy it)."""
    root = tmp_path_factory.mktemp("fsck_store") / "artifacts"
    cfg = DataConfig(num_tasks=2, variants=1, seed=0)
    CorpusBuilder(cfg, store=ArtifactStore(root)).build(["c"])
    return root


@pytest.fixture(scope="module")
def trained(built_store):
    samples = CorpusBuilder(tiny_data_config()).build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    ds = build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=3)
    trainer = MatchTrainer(
        scaled(cpu_config(), epochs=1, hidden_dim=16, embed_dim=16, num_layers=1)
    )
    trainer.train(ds)
    return trainer, j


@pytest.fixture(scope="module")
def model_store(tmp_path_factory):
    """A model store as `repro experiment run` writes it (pristine; tests
    copy it): one checkpoint named by its full 64-hex experiment
    fingerprint, the same shape as an artifact digest."""
    root = tmp_path_factory.mktemp("fsck_models") / "models"
    ds, _ = build_crosslang_dataset(tiny_data_config(seed=5), ["c"], ["java"])
    config = scaled(
        cpu_config(seed=5), epochs=1, hidden_dim=16, embed_dim=16, num_layers=1
    )
    run = run_experiment(ExperimentSpec("fsck", config), ds, store=ModelStore(root))
    assert len(run.fingerprint) == 64
    return root


def copy_store(src, tmp_path):
    dst = tmp_path / "store"
    shutil.copytree(src, dst)
    return dst


def corrupt_one(root):
    """Truncate the first store entry; returns (path, original_bytes)."""
    path = sorted(root.glob("*/*.npz"))[0]
    original = path.read_bytes()
    path.write_bytes(original[: len(original) // 2])
    return path, original


class TestDetectKind:
    def test_detects_each_layout(self, built_store, model_store, tmp_path):
        assert detect_kind(built_store) == "artifacts"
        (tmp_path / "idx").mkdir()
        (tmp_path / "idx" / "manifest.json").write_text("{}")
        assert detect_kind(tmp_path / "idx") == "index"
        assert detect_kind(model_store) == "models"
        with pytest.raises(ValueError, match="cannot tell"):
            (tmp_path / "empty").mkdir()
            detect_kind(tmp_path / "empty")

    def test_kind_comes_from_entry_metadata_not_name_shape(
        self, built_store, model_store, tmp_path
    ):
        """Artifact digests and experiment fingerprints are both 64-hex."""
        models = copy_store(model_store, tmp_path)
        artifacts = tmp_path / "artifacts"
        shutil.copytree(built_store, artifacts)
        (artifacts / "keys.jsonl").unlink()  # no journal to lean on
        assert detect_kind(models) == "models"
        assert detect_kind(artifacts) == "artifacts"

    def test_unreadable_entries_without_journal_are_models(self, built_store, tmp_path):
        """Every artifact put journals its key; a journal-less store whose
        entries say nothing is a model store."""
        entry = tmp_path / "models" / "ab" / ("ab" * 32 + ".npz")
        entry.parent.mkdir(parents=True)
        entry.write_bytes(b"")
        assert detect_kind(tmp_path / "models") == "models"
        artifacts = copy_store(built_store, tmp_path)
        for path in artifacts.glob("*/*.npz"):
            path.write_bytes(b"")
        assert detect_kind(artifacts) == "artifacts"  # the journal decides


class TestArtifactFsck:
    def test_healthy_store_scans_clean(self, built_store):
        report = fsck(built_store)
        assert report["clean"]
        assert report["counts"].get("corrupt", 0) == 0
        assert report["counts"]["ok"] == len(list(built_store.glob("*/*.npz")))

    def test_corruption_is_classified(self, built_store, tmp_path):
        root = copy_store(built_store, tmp_path)
        corrupt_one(root)
        report = fsck(root)
        assert not report["clean"]
        assert report["counts"]["corrupt"] == 1

    def test_quarantine_moves_damage_out(self, built_store, tmp_path):
        root = copy_store(built_store, tmp_path)
        path, _ = corrupt_one(root)
        before = len(ArtifactStore(root))
        report = fsck(root, quarantine=True)
        assert not path.exists()
        quarantined = list((root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.endswith(".quarantined")
        # The store no longer counts the quarantined entry.
        assert len(ArtifactStore(root)) == before - 1
        assert report["actions"]["quarantined"] == 1

    def test_repair_restores_bit_identical_bytes(self, built_store, tmp_path):
        root = copy_store(built_store, tmp_path)
        path, original = corrupt_one(root)
        report = fsck(root, repair=True)
        assert report["clean"]
        assert report["actions"]["repaired"] == 1
        assert path.read_bytes() == original  # re-derived, not restored
        assert fsck(root)["clean"]

    def test_orphan_tmps_are_reported_and_deleted(self, built_store, tmp_path):
        root = copy_store(built_store, tmp_path)
        orphan = root / "ab" / "half-written.tmp"
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_bytes(b"junk")
        report = fsck(root)
        assert report["counts"]["orphaned-tmp"] == 1
        assert orphan.exists()  # scan-only never mutates
        report = fsck(root, quarantine=True)
        assert report["actions"]["deleted"] == 1
        assert not orphan.exists()


class TestModelFsck:
    @pytest.fixture()
    def model_root(self, model_store, tmp_path):
        return copy_store(model_store, tmp_path)

    def test_experiment_store_scans_clean_as_models(self, model_root, capsys):
        report = fsck(model_root)
        assert report["kind"] == "models"
        assert report["clean"] and report["counts"]["ok"] == 1
        entries = sorted(model_root.glob("*/*.npz"))
        assert main(["fsck", str(model_root), "--quarantine"]) == 0
        assert capsys.readouterr().out.startswith(f"fsck models at {model_root}")
        assert sorted(model_root.glob("*/*.npz")) == entries
        assert not (model_root / "quarantine").exists()

    def test_checkpoint_under_another_fingerprint_is_corrupt(self, model_root):
        [path] = model_root.glob("*/*.npz")
        other = "cd" * 32
        (model_root / other[:2]).mkdir()
        path.rename(model_root / other[:2] / (other + ".npz"))
        report = fsck(model_root, kind="models")
        [bad] = [e for e in report["entries"] if e["status"] == "corrupt"]
        assert "mislocated" in bad["detail"]

    def test_healthy_then_corrupt(self, model_root):
        assert fsck(model_root)["clean"]
        path = sorted(model_root.glob("*/*.npz"))[0]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        report = fsck(model_root)
        assert not report["clean"]
        assert report["counts"]["corrupt"] == 1

    def test_models_are_unrepairable_but_quarantined(self, model_root):
        path = sorted(model_root.glob("*/*.npz"))[0]
        path.write_bytes(path.read_bytes()[:100])
        report = fsck(model_root, repair=True)
        assert not path.exists()
        assert report["actions"].get("unrepairable") == 1


class TestIndexFsck:
    @pytest.fixture()
    def index_root(self, trained, tmp_path):
        trainer, j = trained
        idx = EmbeddingIndex(trainer)
        idx.add(
            [s.source_graph for s in j],
            metas=[{"id": s.identifier} for s in j],
        )
        ShardedEmbeddingIndex.from_index(idx, tmp_path / "index", 3)
        return tmp_path / "index"

    def test_healthy_index_scans_clean(self, index_root):
        report = fsck(index_root)
        assert report["kind"] == "index"
        assert report["clean"]

    def test_corrupt_shard_is_flagged_and_quarantined(self, index_root):
        shard = sorted(index_root.glob("shard-*.npz"))[0]
        shard.write_bytes(shard.read_bytes()[:64])
        report = fsck(index_root)
        assert not report["clean"]
        assert report["counts"]["corrupt"] == 1
        fsck(index_root, quarantine=True)
        assert not shard.exists()
        assert list((index_root / "quarantine").iterdir())

    def test_missing_checksum_is_corrupt(self, index_root):
        """Every index writer records a checksum; a missing one is damage."""
        manifest = json.loads((index_root / "manifest.json").read_text())
        del manifest["shards"][0]["sha256"]
        (index_root / "manifest.json").write_text(json.dumps(manifest))
        report = fsck(index_root)
        assert not report["clean"]
        [bad] = [e for e in report["entries"] if e["status"] == "corrupt"]
        assert bad["file"] == manifest["shards"][0]["file"]
        assert "no recorded checksum" in bad["detail"]

    def test_manifest_untouched_by_quarantine(self, index_root):
        manifest = (index_root / "manifest.json").read_text()
        shard = sorted(index_root.glob("shard-*.npz"))[0]
        shard.write_bytes(b"not an npz")
        fsck(index_root, quarantine=True)
        assert (index_root / "manifest.json").read_text() == manifest


class TestFsckCli:
    def test_json_report_and_exit_codes(self, built_store, tmp_path, capsys):
        root = copy_store(built_store, tmp_path)
        assert main(["fsck", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"]
        corrupt_one(root)
        assert main(["fsck", str(root), "--json"]) == 1
        capsys.readouterr()
        assert main(["fsck", str(root), "--repair", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["actions"]["repaired"] == 1

    def test_bad_kind_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit):
            main(["fsck", str(tmp_path / "empty"), "--kind", "nonsense"])
        capsys.readouterr()
        # Undetectable layout: a usage error (rc 2), not a crash.
        assert main(["fsck", str(tmp_path / "empty")]) == 2
        assert "cannot tell" in capsys.readouterr().err
