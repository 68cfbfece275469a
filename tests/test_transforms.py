"""Tests for the transformation subsystem (repro.transform + pipeline stage)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts import ArtifactKey, ArtifactStore, source_text_id
from repro.binary.isa import BinaryProgram
from repro.binary.vm import run_binary
from repro.index import graph_fingerprint
from repro.pipeline import STAGE_TRANSFORM, STAGES, CompilationPipeline
from repro.transform import (
    TRANSFORM_REGISTRY,
    TransformError,
    TransformSpec,
    chain_id,
    parse_transform_chain,
    validate_intensity,
)

# Branches, a loop and a surviving call (at O1): every registered
# transform has eligible sites on this program.
PROBE = """\
int helper(int a, int b) { int t = a * 2 + b; return t - 3; }
int main() {
    int s = 0;
    for (int i = 1; i <= 8; i++) {
        if (i % 2 == 0) { s += helper(i, s); } else { s = s - i; }
    }
    printf("%d\\n", s);
    return 0;
}
"""

STACKED = "deadcode@0.7~5+instsub@1~5+blockreorder@1~5+regrename@1~5+pad@0.5~5"


def compile_probe(transforms=None, store=None, cache_key=None):
    return CompilationPipeline(store=store, transforms=transforms).compile(
        PROBE, "c", name="det-probe", opt_level="O1", cache_key=cache_key
    )


class TestSpecGrammar:
    def test_parse_defaults(self):
        spec = TransformSpec.parse("deadcode")
        assert (spec.name, spec.intensity, spec.seed) == ("deadcode", 1.0, 0)

    def test_parse_full(self):
        spec = TransformSpec.parse("regrename@0.25~7")
        assert (spec.name, spec.intensity, spec.seed) == ("regrename", 0.25, 7)
        assert spec.spec == "regrename@0.25~7"

    def test_chain_roundtrip(self):
        chain = parse_transform_chain("deadcode@0.5~3+pad")
        assert chain_id(chain) == "deadcode@0.5~3+pad@1~0"
        assert parse_transform_chain("") == ()

    def test_intensity_canonicalized_to_spec_rendering(self):
        # Distinct intensities below %g precision must not share one
        # canonical spec (and therefore one artifact key) while behaving
        # differently — construction rounds to what .spec renders.
        a = TransformSpec("deadcode", 0.33333332)
        b = TransformSpec("deadcode", 0.33333334)
        assert a.spec == b.spec
        assert a.intensity == b.intensity == float(f"{0.33333334:g}")

    def test_unknown_name_rejected(self):
        with pytest.raises(TransformError, match="unknown transform"):
            TransformSpec.parse("nosuch")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.1", "1.5", "x"])
    def test_bad_intensity_rejected(self, bad):
        with pytest.raises(TransformError):
            validate_intensity(bad)
        with pytest.raises(TransformError):
            TransformSpec.parse(f"deadcode@{bad}")

    def test_bad_seed_rejected(self):
        with pytest.raises(TransformError, match="seed"):
            TransformSpec.parse("deadcode~x")

    def test_registry_levels(self):
        levels = {t.level for t in TRANSFORM_REGISTRY.values()}
        assert levels == {"ir", "binary"}
        assert {"inline", "deadcode", "instsub", "blockreorder",
                "regrename", "pad"} <= set(TRANSFORM_REGISTRY)


class TestArtifactKeyVariants:
    def _key(self, transforms=""):
        return ArtifactKey("t", 0, "c", "O1", "clang", "src", transforms=transforms)

    def test_canonicalized(self):
        assert self._key("deadcode").transforms == "deadcode@1~0"
        assert self._key("deadcode").digest == self._key("deadcode@1~0").digest

    def test_cross_level_order_canonicalized(self):
        # IR-level transforms always apply before binary-level ones, so
        # the two spellings are one compilation — and one cache entry.
        assert chain_id(parse_transform_chain("pad+deadcode")) == \
            "deadcode@1~0+pad@1~0"
        assert self._key("pad+deadcode").digest == self._key("deadcode+pad").digest

    def test_variant_digests_distinct(self):
        digests = {
            self._key().digest,
            self._key("deadcode").digest,
            self._key("deadcode@0.5").digest,
            self._key("deadcode+pad").digest,
        }
        assert len(digests) == 4

    def test_unknown_variant_name_rejected(self):
        with pytest.raises(TransformError, match="unknown transform"):
            self._key("nosuch")

    @pytest.mark.parametrize("bad", ["deadcode@nan", "deadcode@-1", "deadcode@2"])
    def test_bad_intensity_rejected(self, bad):
        with pytest.raises(TransformError):
            self._key(bad)


class TestSemanticsPreserved:
    """Transformed binaries must execute identically to clean ones."""

    @pytest.mark.parametrize("name", sorted(TRANSFORM_REGISTRY))
    def test_vm_output_unchanged(self, name):
        clean = compile_probe()
        spec = TransformSpec(name, 1.0, seed=3)
        transformed = compile_probe(transforms=(spec,))
        clean_out = run_binary(BinaryProgram.decode(clean.binary_bytes))
        trans_out = run_binary(BinaryProgram.decode(transformed.binary_bytes))
        assert trans_out == clean_out

    def test_stacked_chain_output_unchanged(self):
        clean = compile_probe()
        transformed = compile_probe(transforms=STACKED)
        assert run_binary(BinaryProgram.decode(transformed.binary_bytes)) == \
            run_binary(BinaryProgram.decode(clean.binary_bytes))

    @pytest.mark.parametrize("name", sorted(TRANSFORM_REGISTRY))
    def test_perturbs_binary_and_graph(self, name):
        clean = compile_probe()
        transformed = compile_probe(transforms=(TransformSpec(name, 1.0, seed=3),))
        assert transformed.binary_bytes != clean.binary_bytes
        assert graph_fingerprint(transformed.decompiled_graph) != \
            graph_fingerprint(clean.decompiled_graph)

    def test_source_side_never_transformed(self):
        clean = compile_probe()
        transformed = compile_probe(transforms=STACKED)
        assert graph_fingerprint(transformed.source_graph) == \
            graph_fingerprint(clean.source_graph)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(TRANSFORM_REGISTRY))
    def test_same_seed_same_bytes(self, name):
        chain = (TransformSpec(name, 0.7, seed=9),)
        assert compile_probe(transforms=chain).binary_bytes == \
            compile_probe(transforms=chain).binary_bytes

    def test_different_seed_different_bytes(self):
        # deadcode draws its injected constants from the spec RNG, so a
        # different seed must produce different bytes.
        a = compile_probe(transforms=(TransformSpec("deadcode", 1.0, seed=1),))
        b = compile_probe(transforms=(TransformSpec("deadcode", 1.0, seed=2),))
        assert a.binary_bytes != b.binary_bytes

    def test_intensity_zero_is_noop_on_bytes(self):
        clean = compile_probe()
        chain = tuple(TransformSpec(n, 0.0, seed=3) for n in sorted(TRANSFORM_REGISTRY))
        assert compile_probe(transforms=chain).binary_bytes == clean.binary_bytes

    def test_cross_process_byte_identical(self, tmp_path):
        """Same spec ⇒ byte-identical artifacts in a separate process."""
        in_process = hashlib.sha256(
            compile_probe(transforms=STACKED).binary_bytes
        ).hexdigest()
        src_file = tmp_path / "probe.c"
        src_file.write_text(PROBE)
        script = (
            "import hashlib, sys\n"
            "from repro.pipeline import CompilationPipeline\n"
            "src = open(sys.argv[1]).read()\n"
            f"r = CompilationPipeline(transforms={STACKED!r}).compile(\n"
            "    src, 'c', name='det-probe', opt_level='O1')\n"
            "print(hashlib.sha256(r.binary_bytes).hexdigest())\n"
        )
        src_root = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
        out = subprocess.run(
            [sys.executable, "-c", script, str(src_file)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == in_process


class TestStoreCommute:
    def test_stacked_transforms_commute_with_warm_reload(self, tmp_path):
        """store.put(transform(x)) then warm get == recomputing transform(x)."""
        key = ArtifactKey(
            "probe", 0, "c", "O1", "clang", source_text_id(PROBE),
            transforms=chain_id(parse_transform_chain(STACKED)),
        )
        store = ArtifactStore(tmp_path / "store")
        cold = compile_probe(transforms=STACKED, store=store, cache_key=key)
        assert not cold.from_cache

        warm = compile_probe(
            transforms=STACKED, store=ArtifactStore(tmp_path / "store"), cache_key=key
        )
        recomputed = compile_probe(transforms=STACKED)
        assert warm.from_cache
        assert warm.binary_bytes == cold.binary_bytes == recomputed.binary_bytes
        assert graph_fingerprint(warm.decompiled_graph) == \
            graph_fingerprint(recomputed.decompiled_graph)
        assert graph_fingerprint(warm.source_graph) == \
            graph_fingerprint(recomputed.source_graph)
        assert warm.transforms == recomputed.transforms

    def test_clean_and_transformed_entries_coexist(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        sid = source_text_id(PROBE)
        clean_key = ArtifactKey("probe", 0, "c", "O1", "clang", sid)
        trans_key = ArtifactKey(
            "probe", 0, "c", "O1", "clang", sid, transforms="pad@1~3"
        )
        clean = compile_probe(store=store, cache_key=clean_key)
        transformed = compile_probe(
            transforms="pad@1~3", store=store, cache_key=trans_key
        )
        assert len(store) == 2
        assert store.get(clean_key).binary_bytes == clean.binary_bytes
        assert store.get(trans_key).binary_bytes == transformed.binary_bytes


class TestPipelineStage:
    def test_transform_stage_recorded(self):
        pipeline = CompilationPipeline(transforms="pad@1~3")
        result = pipeline.compile(PROBE, "c", name="det-probe", opt_level="O1")
        assert STAGE_TRANSFORM in result.stages_completed
        assert STAGE_TRANSFORM in pipeline.timer.counts
        assert result.complete
        assert result.transforms == ["pad@1~3"]

    def test_clean_compile_has_no_transform_stage(self):
        result = compile_probe()
        assert result.stages_completed == list(STAGES)
        assert result.transforms == []

    def test_cache_key_chain_mismatch_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        clean_key = ArtifactKey("probe", 0, "c", "O1", "clang", source_text_id(PROBE))
        with pytest.raises(ValueError, match="transform chain"):
            compile_probe(transforms="pad@1~3", store=store, cache_key=clean_key)
        trans_key = ArtifactKey(
            "probe", 0, "c", "O1", "clang", source_text_id(PROBE),
            transforms="pad@1~3",
        )
        with pytest.raises(ValueError, match="transform chain"):
            compile_probe(store=store, cache_key=trans_key)
        # Matching chains (canonicalized both sides) still compile fine.
        assert compile_probe(
            transforms="pad@1~3", store=store, cache_key=trans_key
        ).complete

    def test_per_call_override(self):
        pipeline = CompilationPipeline(transforms="pad@1~3")
        clean = pipeline.compile(PROBE, "c", name="x", opt_level="O1", transforms=())
        assert clean.transforms == []
        assert clean.binary_bytes == compile_probe().binary_bytes


class TestCLIBoundary:
    def _parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    def test_good_arguments(self):
        args = self._parse([
            "robustness", "m.npz",
            "--transforms", "deadcode,pad+regrename",
            "--intensities", "0.25,1",
        ])
        assert args.transforms == ["deadcode", "pad+regrename"]
        assert args.intensities == [0.25, 1.0]

    def test_full_spec_grammar_accepted(self):
        args = self._parse([
            "robustness", "m.npz", "--transforms", "deadcode@0.5~3+pad,regrename@1",
        ])
        assert args.transforms == ["deadcode@0.5~3+pad", "regrename@1"]

    @pytest.mark.parametrize("bad", ["nan", "-1", "2", "0.5,inf"])
    def test_bad_intensity_exits(self, bad, capsys):
        with pytest.raises(SystemExit):
            self._parse(["robustness", "m.npz", "--intensities", bad])
        assert "intensity" in capsys.readouterr().err

    def test_unknown_transform_exits(self, capsys):
        with pytest.raises(SystemExit):
            self._parse(["robustness", "m.npz", "--transforms", "deadcode,nosuch"])
        assert "unknown transform" in capsys.readouterr().err

    def test_source_langs_validated(self, capsys):
        args = self._parse(["robustness", "m.npz", "--source-langs", " java , cpp"])
        assert args.source_langs == ["java", "cpp"]
        with pytest.raises(SystemExit):
            self._parse(["robustness", "m.npz", "--source-langs", "jav"])
        assert "unknown language" in capsys.readouterr().err

    def test_transforms_listing(self, capsys):
        from repro.cli import main

        assert main(["transforms"]) == 0
        out = capsys.readouterr().out
        for name in TRANSFORM_REGISTRY:
            assert name in out
