"""Durability of every on-disk artifact.

Every artifact the simulator writes — trace libraries, Chrome traces,
metric exports, flight-recorder dumps — goes through
:func:`repro.persist.atomic_write_text`: staged to a temp file in the
target directory, fsynced, and renamed over the target. These tests pin
the guarantees that function (and the trace library's flock-guarded
merge-on-save built on it) makes: a crash mid-save leaves the previous
artifact intact, two concurrent writers lose neither's hits, and
``save -> load -> save`` is byte-stable. The write goes out in slices,
so a large text is never held a second time as encoded bytes.

Also here: the lifetime-hits regression (a trace hit and then evicted
mid-run must not vanish from the library) and the ``from err`` chaining
contract of every artifact/spec parser.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.persist import _WRITE_SLICE, atomic_write_text, locked
from repro.serve import TraceCache, TraceLibrary, TraceRecord
from repro.serve.cluster import parse_fleet_spec
from repro.serve.traffic import parse_tenant_spec

from tests.test_serve_federation import stub_compile

_KEY_A = ("lego", "hashgrid", 64, 64)
_KEY_B = ("room", "gaussian", 64, 64)


def library_with(key, hits):
    scene, pipeline, width, height = key
    return TraceLibrary([TraceRecord(
        scene=scene, pipeline=pipeline, width=width, height=height,
        invocations=3, pixels=4096, compile_s=0.001, hits=hits)])


# ----------------------------------------------------------------------
# atomic_write_text
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "one")
        assert path.read_text() == "one"
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "artifact.json", "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_crash_mid_save_keeps_previous_bytes(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "previous")

        def boom(src, dst):
            raise OSError("kill -9 between write and rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="kill -9"):
            atomic_write_text(path, "half-written garbage")
        monkeypatch.undo()
        assert path.read_text() == "previous"
        # The staged temp file was cleaned up, not left as litter.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_locked_is_reentrant_per_path_family(self, tmp_path):
        # Two sequential critical sections on one artifact: the sidecar
        # lock must not deadlock or leak state between them.
        path = tmp_path / "artifact.json"
        for text in ("a", "b"):
            with locked(path):
                atomic_write_text(path, text)
        assert path.read_text() == "b"

    def test_large_write_adds_less_than_half_the_text(self, tmp_path):
        # 8 MiB of text with two-byte UTF-8 characters on either side of
        # every slice boundary: the file holds text.encode("utf-8"), and
        # the write never holds a full encoded copy at once.
        chars = ["x"] * (8 * _WRITE_SLICE)
        for boundary in range(_WRITE_SLICE, len(chars), _WRITE_SLICE):
            chars[boundary - 1] = chars[boundary] = "é"
        text = "".join(chars)
        del chars
        path = tmp_path / "large.json"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            atomic_write_text(path, text)
            added = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert added < len(text) / 2, added / len(text)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("wide", ["é", "✓", "😀"])
    def test_slices_split_no_character(self, wide, tmp_path):
        # Two- to four-byte characters at every slice edge, and a text
        # that ends inside its last slice.
        n = 2 * _WRITE_SLICE + 3
        text = "".join(wide if i % _WRITE_SLICE in (0, 1, _WRITE_SLICE - 1)
                       else "a" for i in range(n))
        path = tmp_path / "wide.txt"
        atomic_write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")


# ----------------------------------------------------------------------
# Trace-library durability
# ----------------------------------------------------------------------
class TestLibraryDurability:
    def test_save_load_save_is_byte_stable(self, tmp_path):
        cache = TraceCache(capacity=8, compile_fn=stub_compile)
        for key in (_KEY_A, _KEY_B, _KEY_A):
            cache.get(key)
        library = TraceLibrary()
        library.absorb(cache)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        library.save(first)
        TraceLibrary.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_merge_save_matches_plain_save_for_single_writer(self,
                                                             tmp_path):
        plain = tmp_path / "plain.json"
        merged = tmp_path / "merged.json"
        library_with(_KEY_A, hits=5).save(plain)
        loaded = TraceLibrary.load(plain)
        loaded.absorb(TraceCache(capacity=1), run_hits={_KEY_A: 2})
        loaded.save(merged, merge=True)
        loaded2 = TraceLibrary.load(plain)
        loaded2.absorb(TraceCache(capacity=1), run_hits={_KEY_A: 2})
        loaded2.save(plain)
        assert plain.read_bytes() == merged.read_bytes()
        assert TraceLibrary.load(merged).get(_KEY_A).hits == 7

    def test_kill_mid_save_leaves_previous_library_intact(self, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "library.json"
        library_with(_KEY_A, hits=5).save(path)
        before = path.read_bytes()

        library = TraceLibrary.load(path)
        library.absorb(TraceCache(capacity=1), run_hits={_KEY_A: 3})

        def boom(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="power loss"):
            library.save(path, merge=True)
        monkeypatch.undo()
        # The artifact still parses and still holds the previous state.
        assert path.read_bytes() == before
        assert TraceLibrary.load(path).get(_KEY_A).hits == 5
        # Retrying after the "reboot" lands the update.
        library.save(path, merge=True)
        assert TraceLibrary.load(path).get(_KEY_A).hits == 8

    def test_concurrent_merge_saves_lose_neither_writers_hits(self,
                                                              tmp_path):
        # Two processes load the same artifact, accumulate hits
        # independently, and save concurrently: the merge folds each
        # writer's *delta* onto disk, so the interleaving that loses
        # the first writer's update with bare save() cannot happen.
        path = tmp_path / "library.json"
        library_with(_KEY_A, hits=10).save(path)
        one = TraceLibrary.load(path)
        two = TraceLibrary.load(path)
        one.absorb(TraceCache(capacity=1), run_hits={_KEY_A: 5})
        two.absorb(TraceCache(capacity=1), run_hits={_KEY_A: 7})
        one.save(path, merge=True)
        two.save(path, merge=True)
        assert TraceLibrary.load(path).get(_KEY_A).hits == 22

    def test_repeated_merge_saves_are_idempotent(self, tmp_path):
        path = tmp_path / "library.json"
        library_with(_KEY_A, hits=10).save(path)
        library = TraceLibrary.load(path)
        library.absorb(TraceCache(capacity=1), run_hits={_KEY_A: 5})
        library.save(path, merge=True)
        once = path.read_bytes()
        library.save(path, merge=True)
        assert path.read_bytes() == once
        assert TraceLibrary.load(path).get(_KEY_A).hits == 15

    def test_merge_save_keeps_disk_only_keys(self, tmp_path):
        path = tmp_path / "library.json"
        library_with(_KEY_A, hits=2).save(path)
        other = library_with(_KEY_B, hits=4)
        other.save(path, merge=True)
        final = TraceLibrary.load(path)
        assert final.get(_KEY_A).hits == 2
        assert final.get(_KEY_B).hits == 4

    def test_two_process_stress_conserves_every_hit(self, tmp_path):
        # The real thing: two interpreters hammer one shared library
        # path with absorb+merge-save loops at once. The sidecar flock
        # serializes read-merge-write, so the final artifact holds the
        # sum of every iteration from both writers.
        path = tmp_path / "library.json"
        library_with(_KEY_A, hits=0).save(path)
        script = (
            "import sys\n"
            "from repro.serve import TraceCache, TraceLibrary\n"
            "path = sys.argv[1]\n"
            "key = ('lego', 'hashgrid', 64, 64)\n"
            "for _ in range(25):\n"
            "    library = TraceLibrary.load(path)\n"
            "    library.absorb(TraceCache(capacity=1), run_hits={key: 1})\n"
            "    library.save(path, merge=True)\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen([sys.executable, "-c", script, str(path)],
                             env=env, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in workers:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        assert TraceLibrary.load(path).get(_KEY_A).hits == 50

    def test_load_missing_path_is_an_empty_library(self, tmp_path):
        assert len(TraceLibrary.load(tmp_path / "absent.json")) == 0


# ----------------------------------------------------------------------
# Lifetime hits survive eviction (the lost-update absorb bug)
# ----------------------------------------------------------------------
class TestEvictedHitsSurvive:
    def test_hit_then_evicted_key_keeps_its_lifetime_hits(self):
        cache = TraceCache(capacity=1, compile_fn=stub_compile)
        cache.get(_KEY_A)             # compile
        cache.get(_KEY_A)             # demand hit
        cache.get(_KEY_B)             # evicts A
        assert _KEY_A not in cache
        library = TraceLibrary()
        library.absorb(cache)
        record = library.get(_KEY_A)
        assert record is not None
        assert record.hits == 1
        # The eviction-time metadata carried the program shape too.
        program = stub_compile(_KEY_A)
        assert record.invocations == len(program.invocations)
        assert record.pixels == program.pixels
        assert library.get(_KEY_B) is not None

    def test_unhit_evicted_key_is_not_recorded(self):
        cache = TraceCache(capacity=1, compile_fn=stub_compile)
        cache.get(_KEY_A)             # compile, never hit
        cache.get(_KEY_B)             # evicts A
        library = TraceLibrary()
        library.absorb(cache)
        assert library.get(_KEY_A) is None

    def test_readmission_clears_the_eviction_metadata(self):
        cache = TraceCache(capacity=1, compile_fn=stub_compile)
        cache.get(_KEY_A)
        cache.get(_KEY_B)             # evicts A
        assert _KEY_A in cache.evicted_meta
        cache.get(_KEY_A)             # recompiled and resident again
        assert _KEY_A not in cache.evicted_meta

    def test_evicted_hits_round_trip_through_the_artifact(self, tmp_path):
        cache = TraceCache(capacity=1, compile_fn=stub_compile)
        cache.get(_KEY_A)
        cache.get(_KEY_A)
        cache.get(_KEY_B)
        library = TraceLibrary()
        library.absorb(cache)
        path = tmp_path / "library.json"
        library.save(path)
        assert TraceLibrary.load(path).get(_KEY_A).hits == 1


# ----------------------------------------------------------------------
# Parser error chaining: the original cause rides on every ConfigError
# ----------------------------------------------------------------------
class TestErrorChaining:
    def test_trace_record_from_dict_chains(self):
        with pytest.raises(ConfigError,
                           match="malformed trace-library entry") as info:
            TraceRecord.from_dict({"scene": "lego"})
        assert isinstance(info.value.__cause__, KeyError)

    def test_library_load_chains_json_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON") as info:
            TraceLibrary.load(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_fleet_spec_chains(self):
        with pytest.raises(ConfigError, match="bad fleet-spec count") as info:
            parse_fleet_spec("many*1x1")
        assert isinstance(info.value.__cause__, ValueError)
        with pytest.raises(ConfigError, match="bad fleet-spec entry") as info:
            parse_fleet_spec("2xfour")
        assert isinstance(info.value.__cause__, ValueError)

    def test_tenant_spec_chains(self):
        with pytest.raises(ConfigError, match="is not a number") as info:
            parse_tenant_spec("premium:weight=heavy")
        assert isinstance(info.value.__cause__, ValueError)
