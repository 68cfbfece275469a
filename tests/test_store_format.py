"""Tests for the one store entry format and the one commit path.

Artifact entries and model checkpoints are both ``.npz`` files whose
``__meta_json__`` member records ``payload_sha256`` over the arrays
(:mod:`repro.utils.fsio`).  The invariants under test: damage to either
part of an entry is caught wherever a checksum is checked; an entry with
no recorded checksum counts as corrupt there, yet still loads on a
default read; and the fault sites every store and index commit passes
through keep their names and order.
"""

import json
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.artifacts import ArtifactKey, ArtifactStore, source_text_id
from repro.config import cpu_config, scaled, tiny_data_config
from repro.eval.experiments import build_crosslang_dataset
from repro.exec import ExperimentSpec, ModelStore, run_experiment
from repro.fsck import fsck
from repro.index import ShardedEmbeddingIndex
from repro.index.sharded import ShardCorruption
from repro.ir.printer import print_module
from repro.pipeline import CompilationPipeline

#: A store-format-2 entry for ``make_key()`` as the format-2 writer wrote
#: it: ``SOURCE`` compiled with the default pipeline, with the serialized
#: ``source_module``/``decompiled_module`` members format 3 dropped.
FORMAT2_ENTRY = Path(__file__).resolve().parent / "data" / "artifact_entry_format2.npz"

SOURCE = "int gcd(int a, int b) { while (b) { int t = b; b = a % b; a = t; } return a; }"
META = "__meta_json__"


def make_key():
    return ArtifactKey(
        task="gcd",
        variant=1,
        language="c",
        opt_level="O1",
        compiler="llvm-mock",
        source_id=source_text_id(SOURCE),
    )


@pytest.fixture(scope="module")
def compiled():
    return CompilationPipeline().compile(SOURCE, "c", name="gcd/v1.c")


@pytest.fixture(scope="module")
def dataset():
    ds, _ = build_crosslang_dataset(tiny_data_config(seed=5), ["c"], ["java"])
    return ds


@pytest.fixture(scope="module")
def run(dataset, tmp_path_factory):
    """A real experiment run (64-hex fingerprint) and the store it wrote."""
    root = tmp_path_factory.mktemp("format_models")
    config = scaled(
        cpu_config(seed=5), epochs=1, hidden_dim=16, embed_dim=16, num_layers=1
    )
    spec = ExperimentSpec("format", config)
    return run_experiment(spec, dataset, store=ModelStore(root)), root


def rewrite(path, compressed, mutate):
    """Re-save an entry after ``mutate(members)`` edits its decoded members."""
    with np.load(str(path)) as archive:
        members = {name: np.array(archive[name]) for name in archive.files}
    mutate(members)
    (np.savez_compressed if compressed else np.savez)(str(path), **members)


def flip_array_byte(name):
    def mutate(members):
        raw = members[name].view(np.uint8).reshape(-1)
        raw[0] ^= 0xFF

    return mutate


def drop_checksum(members):
    meta = json.loads(members[META].tobytes().decode("utf-8"))
    del meta["payload_sha256"]
    members[META] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def flip_member_bytes(path, member):
    """Yield after flipping each of 8 spread stored bytes of one zip member
    in turn (the file is restored between flips)."""
    original = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member + ".npy")
    head = info.header_offset
    # Local header: 30 fixed bytes + name + extra field, then the data.
    name_len = int.from_bytes(original[head + 26 : head + 28], "little")
    extra_len = int.from_bytes(original[head + 28 : head + 30], "little")
    start = head + 30 + name_len + extra_len
    for eighth in range(8):
        data = bytearray(original)
        data[start + info.compress_size * eighth // 8] ^= 0xFF
        path.write_bytes(bytes(data))
        yield
    path.write_bytes(original)


def corrupt_detail(report):
    [bad] = [e for e in report["entries"] if e["status"] == "corrupt"]
    return bad["detail"]


class TestModelCheckpointFormat:
    @pytest.fixture()
    def store_copy(self, run, tmp_path):
        result, root = run
        copy = tmp_path / "models"
        shutil.copytree(root, copy)
        return result.fingerprint, copy, ModelStore(copy).path_for(result.fingerprint)

    def test_checkpoint_records_its_payload_checksum(self, store_copy):
        fingerprint, root, path = store_copy
        with np.load(str(path)) as archive:
            meta = json.loads(archive[META].tobytes().decode("utf-8"))
        assert len(meta["payload_sha256"]) == 64
        assert not list(root.rglob("*.sha256"))  # no sidecar files
        store = ModelStore(root, verify_reads=True)
        assert store.get(fingerprint) is not None and store.hits == 1

    def test_flipped_array_byte_is_a_counted_miss_and_corrupt(self, store_copy):
        fingerprint, root, path = store_copy
        with np.load(str(path)) as archive:
            name = next(n for n in archive.files if n != META)
        rewrite(path, True, flip_array_byte(name))
        store = ModelStore(root, verify_reads=True)
        assert store.get(fingerprint) is None
        assert store.read_errors == 1 and store.misses == 1
        report = fsck(root)
        assert report["kind"] == "models"
        assert "checksum mismatch" in corrupt_detail(report)

    def test_flipped_meta_byte_is_detected(self, store_copy):
        """Caught by the zip CRC, the deflate stream or the JSON parse —
        and always as a counted miss, never an exception out of ``get``."""
        fingerprint, root, path = store_copy
        for _ in flip_member_bytes(path, META):
            store = ModelStore(root, verify_reads=True)
            assert store.get(fingerprint) is None
            assert store.read_errors == 1
            assert fsck(root, kind="models")["counts"]["corrupt"] == 1

    def test_checkpoint_without_checksum(self, store_copy):
        fingerprint, root, path = store_copy
        rewrite(path, True, drop_checksum)
        assert ModelStore(root).get(fingerprint) is not None  # default read
        checked = ModelStore(root, verify_reads=True)
        assert checked.get(fingerprint) is None and checked.read_errors == 1
        report = fsck(root)
        assert not report["clean"]
        assert "older format" in corrupt_detail(report)

    @pytest.mark.parametrize("verify", [False, True])
    def test_get_reads_the_checkpoint_once(self, store_copy, monkeypatch, verify):
        fingerprint, root, path = store_copy
        opened = []
        real_load = np.load

        def counting_load(file, *args, **kwargs):
            opened.append(file)
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        store = ModelStore(root, verify_reads=verify)
        assert store.get(fingerprint) is not None and store.hits == 1
        assert opened == [str(path)]
        # Another fingerprint's entry is rejected before a model is built.
        monkeypatch.setattr(
            "repro.core.trainer.MatchTrainer.from_checkpoint",
            lambda *a: pytest.fail("built a model for a foreign entry"),
        )
        other = "0" * 64
        store.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, store.path_for(other))
        assert store.get(other) is None
        assert (store.misses, store.read_errors) == (1, 0)


class TestCompressedShardDamage:
    def test_damaged_float32_shard_is_shard_corruption(
        self, run, compiled, tmp_path
    ):
        """A damaged deflate stream raises ShardCorruption (which degraded
        serving quarantines), not a bare ``zlib.error``."""
        result, _ = run
        root = tmp_path / "index"
        index = ShardedEmbeddingIndex.create(result.trainer, root)
        index.add_shard([compiled.source_graph, compiled.decompiled_graph], [{}, {}])
        for _ in flip_member_bytes(root / "shard-0000.npz", "embeddings"):
            with pytest.raises(ShardCorruption):
                ShardedEmbeddingIndex.open(root, result.trainer).topk(
                    compiled.decompiled_graph, k=2
                )


class TestArtifactEntryFormat:
    @pytest.fixture()
    def stored(self, compiled, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        key = make_key()
        return key, store.root, store.put(key, compiled)

    def test_entry_without_checksum(self, stored):
        key, root, path = stored
        rewrite(path, False, drop_checksum)
        assert ArtifactStore(root).get(key) is not None  # default read
        checked = ArtifactStore(root, verify_reads=True)
        assert checked.get(key) is None and checked.read_errors == 1
        report = fsck(root)
        assert "older format" in corrupt_detail(report)

    def test_tampered_entry_without_checksum_never_hits(self, stored):
        key, root, path = stored

        def tamper(members):
            drop_checksum(members)
            members["binary"] = members["binary"].copy()
            members["binary"][0] ^= 0xFF

        rewrite(path, False, tamper)
        checked = ArtifactStore(root, verify_reads=True)
        assert checked.get(key) is None
        assert checked.read_errors == 1 and checked.hits == 0
        report = fsck(root)
        assert report["counts"]["corrupt"] == 1
        assert "verified" not in json.dumps(report)

    def test_format2_entry_still_hits(self, compiled, tmp_path):
        key = make_key()
        store = ArtifactStore(tmp_path / "artifacts")
        store.path_for(key).parent.mkdir(parents=True)
        shutil.copyfile(FORMAT2_ENTRY, store.path_for(key))
        with np.load(str(FORMAT2_ENTRY)) as archive:
            assert {"source_module", "decompiled_module"} <= set(archive.files)
        for verify in (False, True):
            checked = ArtifactStore(store.root, verify_reads=verify)
            loaded = checked.get(key)
            assert loaded is not None and (checked.hits, checked.read_errors) == (1, 0)
            assert loaded.binary_bytes == compiled.binary_bytes
            for warm, cold in (
                (loaded.source_module, compiled.source_module),
                (loaded.decompiled_module, compiled.decompiled_module),
            ):
                assert print_module(warm) == print_module(cold)
        report = fsck(store.root)
        assert report["counts"]["corrupt"] == 0
        assert [e["status"] for e in report["entries"]] == ["ok"]


class TestFaultSiteSequence:
    """The fault sites of one put/get per store and one index round trip.

    Fault plans in the benches, tests and ``REPRO_FAULTS`` address these
    names, so any rework of the commit path must keep them and their order.
    """

    EXPECTED = [
        ("hit", "artifacts.put.write"),
        ("replace", "artifacts.put"),
        ("hit", "artifacts.get.read"),
        ("hit", "models.put.write"),
        ("replace", "models.put"),
        ("hit", "models.get.read"),
        # float32 index: create, add_shard, open, query
        ("hit", "index.manifest.write"),
        ("replace", "index.manifest"),
        ("hit", "index.array.write"),
        ("replace", "index.array"),
        ("hit", "index.manifest.write"),
        ("replace", "index.manifest"),
        ("hit", "index.shard.read"),
        # int8 index: array, sidecar (no write site), manifest
        ("hit", "index.manifest.write"),
        ("replace", "index.manifest"),
        ("hit", "index.array.write"),
        ("replace", "index.array"),
        ("replace", "index.sidecar"),
        ("hit", "index.manifest.write"),
        ("replace", "index.manifest"),
        ("hit", "index.shard.read"),
    ]

    def test_sites_in_order(self, compiled, run, tmp_path, monkeypatch):
        result, _ = run
        trainer = result.trainer
        graphs = [compiled.source_graph, compiled.decompiled_graph]
        sites = []
        real_replace = faults.replace

        def record_hit(site):
            sites.append(("hit", site))

        def record_replace(src, dst, site):
            sites.append(("replace", site))
            real_replace(src, dst, site)

        monkeypatch.setattr(faults, "hit", record_hit)
        monkeypatch.setattr(faults, "replace", record_replace)
        artifacts = ArtifactStore(tmp_path / "artifacts")
        artifacts.put(make_key(), compiled)
        assert artifacts.get(make_key()) is not None
        models = ModelStore(tmp_path / "models")
        models.put(result.fingerprint, trainer, {})
        assert models.get(result.fingerprint) is not None
        for codec in ("float32", "int8"):
            root = tmp_path / f"index-{codec}"
            index = ShardedEmbeddingIndex.create(trainer, root, codec=codec)
            index.add_shard(graphs, [{"id": 0}, {"id": 1}])
            opened = ShardedEmbeddingIndex.open(root, trainer)
            assert len(opened.topk(compiled.decompiled_graph, k=2)) == 2
        assert sites == self.EXPECTED
