"""Graph front-end output is pinned: golden fingerprints and IR type text.

``tests/data/graph_fingerprints.json`` records, over perfbench's query
universe, the ``graph_fingerprint`` of every decompiled binary and source
graph (dataflow off and on) plus the source module's printed text.  Every
artifact-store key, index entry and query-cache key derives from those
fingerprints, so a faster builder, printer or lifter must reproduce them
exactly.  The full grid runs as ``scripts/graph_fingerprints.py --check``
in ``scripts/verify.sh``; tier-1 checks an evenly spread slice.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.binary.codegen import compile_module
from repro.binary.decompiler import decompile_bytes
from repro.ir.lowering import lower_program
from repro.ir.passes import optimize
from repro.ir.printer import print_module
from repro.ir.types import I1, I32, I64, VOID, IntType, PtrType
from repro.lang.generator import SolutionGenerator

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "graph_fingerprints.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("graph_fingerprints", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestGoldenFingerprints:
    def test_recording_covers_the_grid(self, golden):
        rows = golden.load()
        assert list(rows) == [golden.key(c) for c in golden.grid()]
        assert all(len(r) == len(golden.COLUMNS) for r in rows.values())

    def test_slice_matches_recording(self, golden):
        coords = golden.spread(golden.grid(), 48)
        assert len(coords) == 48
        assert {c[2] for c in coords} == {"c", "cpp", "java"}
        assert {c[3] for c in coords} == set(golden.OPT_LEVELS)
        assert golden.mismatches(golden.compute(coords), golden.load()) == []

    def test_drift_is_reported(self, golden):
        (coord,) = golden.spread(golden.grid(), 1)
        got = golden.compute([coord])
        got[golden.key(coord)][2] = "0" * 64
        (line,) = golden.mismatches(got, golden.load())
        assert "source" in line and golden.key(coord) in line


#: sha256 over the golden grid's (task, variant, language) programs, each
#: generated with ``independent`` False then True: every rendered source
#: text followed by the ``repr`` of the AST its front end parsed back.
RENDERED_SOURCES = "03936436184d04cb8b0c8481415c2e996dbc9f8eeaaaa143b627cb7d13a7d70c"


class TestRenderedSources:
    def test_text_and_parse_match_recording(self, golden):
        # The text keys ``compile_to_views``'s source_text_id and the serve
        # payload digests; the graph pins above never read the text itself.
        h = hashlib.sha256()
        count = 0
        for independent in (False, True):
            generator = SolutionGenerator(seed=golden.SEED, independent=independent)
            for task, variant, lang, _, _ in golden.grid():
                sf = generator.generate(task, variant, lang)
                h.update(sf.text.encode())
                h.update(repr(sf.program).encode())
                count += 1
        assert count == 2 * len(golden.grid()) == 3936
        assert h.hexdigest() == RENDERED_SOURCES


#: sha256 of ``print_module(...)`` for two decompiled modules: the type
#: spelling the printer caches must never change the printed IR.
PRINTED = {
    ("gcd", "c", "O0", "clang"):
        "41e97eea6bf3425c264ca319d26499f986cc8f6ca7346a5ff829618e80493f1c",
    ("count_above", "java", "O2", "gcc"):
        "ef7542d6b718cad830ac26ab678e2934b004fc93bdc8411aa54b58c6f0be8e0d",
}


class TestTypeText:
    def test_fresh_instances_spell_alike(self):
        a, b = PtrType(I64), PtrType(I64)
        assert a is not b
        assert str(a) == str(b) == "i64*"
        assert str(PtrType(PtrType(I32))) == "i32**"
        assert (str(I1), str(VOID)) == ("i1", "void")

    def test_cached_text_stays_out_of_eq_hash_repr(self):
        fresh, warmed = PtrType(IntType(64)), PtrType(IntType(64))
        before = (hash(warmed), repr(warmed))
        str(warmed)
        assert "text" in vars(warmed) and "text" not in vars(fresh)
        assert warmed == fresh and hash(warmed) == hash(fresh)
        assert (hash(warmed), repr(warmed)) == before
        assert len({warmed, fresh, PtrType(I64)}) == 1

    def test_types_stay_frozen(self):
        with pytest.raises(AttributeError):
            I64.bits = 32

    @pytest.mark.parametrize("coord", sorted(PRINTED))
    def test_decompiled_module_prints_as_before(self, coord):
        task, lang, opt, style = coord
        sf = SolutionGenerator(seed=0, independent=True).generate(task, 2, lang)
        module = lower_program(sf.program, name=sf.identifier)
        optimize(module, opt)
        dec = decompile_bytes(compile_module(module, style=style).encode(), sf.identifier)
        text = print_module(dec)
        assert hashlib.sha256(text.encode()).hexdigest() == PRINTED[coord]
