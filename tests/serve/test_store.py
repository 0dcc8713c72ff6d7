"""The on-disk knowledge store: round-trip, two-tier lookup, crash
tolerance of the underlying JSONL file."""

import json

import pytest

from repro.lang import parse_program
from repro.serve.store import (
    KnowledgeStore,
    STORE_VERSION,
    canonical_program_text,
    config_key,
    program_digest,
)

PROGRAM_TEXT = """
x = new File
y = x
x.open()
y.close()
observe check1
"""

CLIENT_INFO = {"kind": "TypestateClient", "universe": ["x", "y"]}


def _entry_args(digest, source="cli:prog.rp", queries=("typestate:check1",)):
    return dict(
        digest=digest,
        source=source,
        client_info=CLIENT_INFO,
        config=(5, 1, 30, None, None, None, 64, True),
        query_ids=list(queries),
        rounds=[{"round": 0, "queries": list(queries), "outcome": "ok"}],
        results={q: {"verdict": "proven"} for q in queries},
        witnesses={},
    )


class TestDigest:
    def test_same_program_same_fingerprint_same_digest(self):
        p1 = parse_program(PROGRAM_TEXT)
        p2 = parse_program(PROGRAM_TEXT)
        assert program_digest(p1, CLIENT_INFO) == program_digest(
            p2, CLIENT_INFO
        )

    def test_digest_separates_programs_and_fingerprints(self):
        program = parse_program(PROGRAM_TEXT)
        edited = parse_program(PROGRAM_TEXT + "z = new Sock\n")
        assert program_digest(program, CLIENT_INFO) != program_digest(
            edited, CLIENT_INFO
        )
        other = dict(CLIENT_INFO, tracked_site="Sock")
        assert program_digest(program, CLIENT_INFO) != program_digest(
            program, other
        )

    def test_canonical_text_handles_cfg_and_procgraph(self):
        from repro.lang import build_cfg

        program = parse_program(PROGRAM_TEXT)
        cfg = build_cfg(program)
        text = canonical_program_text(cfg)
        assert text.startswith("entry ")
        assert "open" in text

        class Graph:
            procedures = {"main": cfg, "helper": cfg}
            main = "main"

        graph_text = canonical_program_text(Graph())
        assert graph_text.startswith("main main")
        assert graph_text.count("proc ") == 2

    def test_config_key_depends_on_beam_width(self):
        from repro.core.tracer import TracerConfig

        assert config_key(TracerConfig(k=3)) != config_key(TracerConfig(k=5))


class TestRoundTrip:
    def test_record_then_lookup_across_reopen(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        args = _entry_args("d" * 64)
        with KnowledgeStore(path) as store:
            store.record(**args)
            assert len(store) == 1
        with KnowledgeStore(path) as store:
            assert store.entries_loaded == 1
            entry = store.lookup(
                args["digest"], args["config"], args["query_ids"]
            )
            assert entry is not None
            assert entry["rounds"] == args["rounds"]
            assert store.hits == 1 and store.misses == 0

    def test_lookup_miss_counts(self, tmp_path):
        with KnowledgeStore(str(tmp_path / "s.jsonl")) as store:
            assert store.lookup("nope", (1,), ["q"]) is None
            assert store.misses == 1
            assert store.hit_rate == 0.0

    def test_seed_lookup_is_latest_by_source_and_kind(self, tmp_path):
        with KnowledgeStore(str(tmp_path / "s.jsonl")) as store:
            store.record(**_entry_args("a" * 64))
            newer = _entry_args("b" * 64)
            store.record(**newer)
            seed = store.lookup_seed("cli:prog.rp", "TypestateClient")
            assert seed is not None and seed["digest"] == "b" * 64
            assert store.lookup_seed("cli:prog.rp", "EscapeClient") is None
            assert store.lookup_seed(None, "TypestateClient") is None

    def test_forget_drops_both_indexes(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        args = _entry_args("c" * 64)
        with KnowledgeStore(path) as store:
            entry = store.record(**args)
            store.forget(entry)
            assert (
                store.lookup(args["digest"], args["config"], args["query_ids"])
                is None
            )
            assert store.lookup_seed("cli:prog.rp", "TypestateClient") is None
        # Forgetting is in-memory only: the file still carries the
        # entry, so the next process sees it again until re-recorded.
        with KnowledgeStore(path) as store:
            assert store.entries_loaded == 1


class TestCrashTolerance:
    def test_torn_trailing_line_is_recovered(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with KnowledgeStore(path) as store:
            store.record(**_entry_args("a" * 64))
        with open(path, "a") as handle:
            handle.write('{"type": "entry", "digest": "tor')  # SIGKILL here
        with KnowledgeStore(path) as store:
            assert store.entries_loaded == 1
            args = _entry_args("a" * 64)
            assert (
                store.lookup(args["digest"], args["config"], args["query_ids"])
                is not None
            )

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with KnowledgeStore(path) as store:
            store.record(**_entry_args("a" * 64))
            store.record(**_entry_args("b" * 64))
        lines = open(path).read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage a middle line
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            KnowledgeStore(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {"type": "store_header", "version": STORE_VERSION + 1}
                )
                + "\n"
            )
        with pytest.raises(ValueError, match="unsupported store version"):
            KnowledgeStore(path)

    def test_unknown_record_types_are_tolerated(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with KnowledgeStore(path) as store:
            store.record(**_entry_args("a" * 64))
        with open(path, "a") as handle:
            handle.write(json.dumps({"type": "future_thing"}) + "\n")
        with KnowledgeStore(path) as store:
            assert store.entries_loaded == 1
