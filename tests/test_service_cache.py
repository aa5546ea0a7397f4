"""The content-addressed result cache and the cross-run lemma pool.

The properties that make the cache safe to trust: keys are stable across
processes and interning order, stale schemas stop being addressed, disk
corruption degrades to recomputation, and the lemma pool round-trips
through a fresh solver.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.logic import ops
from repro.logic.formulas import IntLit, Unknown, value_var
from repro.logic.sorts import INT
from repro.service import cache as cache_mod
from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    LemmaStore,
    ResultCache,
    canonical_program_text,
    open_cache,
    program_digest,
    query_digest,
)
from repro.smt.solver import IncrementalSolver
from repro.syntax import parse_program

LIST_SQ = (Path(__file__).resolve().parent.parent / "examples" / "list.sq").read_text()

MAX_SQ = """\
leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}

max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}
max = ??
"""


class TestDigests:
    def test_digest_ignores_whitespace_and_comments(self):
        noisy = "-- a comment\n\n" + MAX_SQ.replace(" :: ", "  ::  ")
        assert program_digest(parse_program(noisy)) == program_digest(parse_program(MAX_SQ))

    def test_digest_stable_across_interning_order(self):
        """Parsing other programs first (so shared subformulas intern in a
        different order) must not perturb the key."""
        before = program_digest(parse_program(MAX_SQ))
        parse_program(LIST_SQ)  # intern a pile of unrelated formulas
        assert program_digest(parse_program(MAX_SQ)) == before

    def test_digest_stable_across_processes(self, tmp_path):
        """The key survives a new interpreter with a different hash seed —
        nothing in it may depend on Python's per-process string hashing."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.service.cache import program_digest\n"
            "from repro.syntax import parse_program\n"
            "print(program_digest(parse_program(sys.stdin.read())), end='')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        digest = subprocess.run(
            [sys.executable, "-c", script, src],
            input=MAX_SQ,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert digest == program_digest(parse_program(MAX_SQ))

    def test_signature_order_is_significant(self):
        """`check` binds earlier signatures only, so reordering signatures
        changes meaning and must change the key."""
        reordered = (
            "max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}\n"
            "max = ??\n"
            "leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}\n"
        )
        assert program_digest(parse_program(reordered)) != program_digest(parse_program(MAX_SQ))

    def test_verb_and_options_separate_keys(self):
        program = parse_program(MAX_SQ)
        check = query_digest("check", program, {})
        synth = query_digest("synth", program, {"depth": 4})
        deeper = query_digest("synth", program, {"depth": 5})
        assert len({check, synth, deeper}) == 3

    def test_schema_version_salts_the_key(self, monkeypatch):
        program = parse_program(MAX_SQ)
        before = query_digest("check", program, {})
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
        assert query_digest("check", program, {}) != before

    def test_canonical_text_covers_every_declaration(self):
        text = canonical_program_text(parse_program(LIST_SQ))
        for needle in ("data List", "measure len", "stutter = ", "length = ??"):
            assert needle in text


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"items": [1, 2]})
        assert cache.get("ab" * 32) == {"items": [1, 2]}
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "evictions": 0,
            "corrupt": 0,
            "entries": 1,
        }

    def test_eviction_bounds_entries(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for index in range(4):
            cache.put(f"{index:02d}" * 32, {"index": index})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 2

    def test_corrupted_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "cd" * 32
        cache.put(digest, {"ok": True})
        cache._path(digest).write_text("{not json")
        assert cache.get(digest) is None, "corrupt entry must read as a miss"
        assert not cache._path(digest).exists(), "corrupt entry must be dropped"
        cache.put(digest, {"ok": True})
        assert cache.get(digest) == {"ok": True}
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1 and stats["hits"] == 1

    def test_stale_schema_entry_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "ef" * 32
        path = cache._path(digest)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION + 9, "digest": digest, "payload": {}})
        )
        assert cache.get(digest) is None
        assert cache.stats()["corrupt"] == 1

    def test_open_cache_disabled_returns_nothing(self, tmp_path):
        assert open_cache(str(tmp_path), enabled=False) == (None, None)
        cache, store = open_cache(str(tmp_path))
        assert cache is not None and store is not None


class TestLemmaStore:
    def _learned_lemmas(self):
        """Real lemmas: checking list.sq's `stutter` teaches the solver."""
        from repro.service.api import compute_check

        backend = IncrementalSolver()
        compute_check(parse_program(LIST_SQ), backend=backend)
        lemmas = backend.export_theory_lemmas()
        assert lemmas, "expected the check to learn theory lemmas"
        return lemmas

    def test_roundtrip_through_fresh_solver(self, tmp_path):
        lemmas = self._learned_lemmas()
        store = LemmaStore(tmp_path)
        store.merge(lemmas)
        fresh = IncrementalSolver()
        assert fresh.import_theory_lemmas(store.load()) == len(lemmas)
        assert fresh.export_theory_lemmas() == lemmas

    def test_import_is_idempotent(self, tmp_path):
        lemmas = self._learned_lemmas()
        fresh = IncrementalSolver()
        assert fresh.import_theory_lemmas(lemmas) == len(lemmas)
        assert fresh.import_theory_lemmas(lemmas) == 0

    def test_corrupt_pool_is_dropped(self, tmp_path):
        store = LemmaStore(tmp_path)
        store.path.write_bytes(b"\x80not a pickle")
        assert store.load() == []
        assert store.corrupt == 1
        assert not store.path.exists()

    def test_merge_dedups_and_bounds(self, tmp_path):
        store = LemmaStore(tmp_path, max_lemmas=3)
        lemmas = self._learned_lemmas()
        total = store.merge(lemmas)
        assert total == min(3, len(lemmas))
        assert store.merge(lemmas) == total, "re-merging must not grow the pool"

    def test_formula_round_trip_preserves_equality_and_hash(self):
        """The pool is pickled, so a formula loaded in a later process must
        rebuild its precomputed hash (enum members hash by identity) —
        what ``Formula.__reduce__`` guarantees."""
        x = ops.var("x", INT)
        formulas = [
            ops.ge(x, IntLit(0)),
            ops.and_(ops.le(x, value_var(INT)), Unknown("P", (("_v", x),))),
        ]
        for formula in formulas:
            clone = pickle.loads(pickle.dumps(formula))
            assert clone == formula
            assert hash(clone) == hash(formula)
