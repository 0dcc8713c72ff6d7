"""The serve daemon: in-process request handling (all ops, all three
solve kinds, budget clamping, error envelopes) plus one socket
round-trip through the real asyncio server and ServeClient."""

import json
import threading

import pytest

from repro.core.tracer import TracerConfig
from repro.serve.server import AnalysisServer, _tightest

TYPESTATE_TEXT = """
x = new File
x.open()
x.close()
observe check1
"""

ESCAPE_TEXT = """
u = new h1
v = new h2
v.f = u
observe pc
"""

PROVENANCE_TEXT = """
u = new h1
v = new h2
observe pc
"""


@pytest.fixture
def server(tmp_path):
    instance = AnalysisServer(
        str(tmp_path / "serve.sock"),
        store_path=str(tmp_path / "store.jsonl"),
        config=TracerConfig(k=5, max_iterations=30),
    )
    yield instance
    instance.store.close()


class TestOps:
    def test_ping(self, server):
        reply = server.handle_request({"op": "ping"})
        assert reply["ok"] and reply["pong"]
        assert server.requests_served == 1

    def test_stats_reports_session_and_store(self, server):
        reply = server.handle_request({"op": "stats"})
        assert reply["ok"]
        assert reply["session"]["solves"] == 0
        assert reply["store"]["entries"] == 0
        assert reply["store"]["hit_rate"] == 0.0

    def test_unknown_op_is_an_error_envelope(self, server):
        reply = server.handle_request({"op": "frobnicate"})
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]
        # Bad requests still count as served and never raise.
        assert server.requests_served == 1

    def test_every_response_carries_seconds(self, server):
        assert server.handle_request({"op": "ping"})["seconds"] >= 0.0


class TestSolve:
    def test_typestate_solve_and_replay(self, server):
        request = {
            "op": "solve",
            "kind": "typestate",
            "program": TYPESTATE_TEXT,
            "query": "check1",
        }
        cold = server.handle_request(request)
        assert cold["ok"] and cold["mode"] == "cold"
        assert cold["results"][0]["verdict"] == "proven"
        assert cold["results"][0]["query"] == "typestate:check1"
        warm = server.handle_request(request)
        assert warm["ok"] and warm["mode"] == "replay" and warm["store_hit"]
        assert warm["results"] == cold["results"]
        assert warm["digest"] == cold["digest"]

    def test_escape_solve(self, server):
        reply = server.handle_request({
            "op": "solve",
            "kind": "escape",
            "program": ESCAPE_TEXT,
            "query": "pc",
            "var": "u",
        })
        assert reply["ok"]
        assert reply["results"][0]["verdict"] in (
            "proven", "impossible", "exhausted",
        )

    def test_provenance_solve_defaults_allowed_to_all_sites(self, server):
        reply = server.handle_request({
            "op": "solve",
            "kind": "provenance",
            "program": PROVENANCE_TEXT,
            "query": "pc",
            "var": "u",
        })
        assert reply["ok"]
        assert reply["results"][0]["verdict"] == "proven"

    def test_solve_bench_cold_then_warm(self, server):
        request = {
            "op": "solve-bench",
            "benchmark": "tsp",
            "analysis": "typestate",
        }
        cold = server.handle_request(request)
        assert cold["ok"] and cold["modes"] == ["cold"]
        assert cold["store_hits"] == 0 and cold["units"] > 0
        warm = server.handle_request(request)
        assert warm["modes"] == ["replay"]
        assert warm["store_hits"] == warm["units"]
        assert warm["results"] == cold["results"]

    def test_bad_inputs_are_error_envelopes(self, server):
        bad = [
            {"op": "solve", "kind": "typestate"},  # no program
            {"op": "solve", "kind": "mystery", "program": TYPESTATE_TEXT},
            {"op": "solve", "kind": "typestate",
             "program": TYPESTATE_TEXT},  # no query
            {"op": "solve", "kind": "typestate",
             "program": TYPESTATE_TEXT, "query": "nope"},
            {"op": "solve", "kind": "typestate",
             "program": TYPESTATE_TEXT, "query": "check1",
             "allowed": ["molten"]},
            {"op": "solve", "kind": "escape",
             "program": ESCAPE_TEXT, "query": "pc", "var": "ghost"},
            {"op": "solve", "kind": "typestate",
             "program": "x = ???", "query": "check1"},  # parse error
            {"op": "solve-bench", "benchmark": "tsp"},  # no analysis
            {"op": "solve-bench", "benchmark": "atlantis",
             "analysis": "typestate"},
        ]
        for request in bad:
            reply = server.handle_request(request)
            assert reply["ok"] is False, request
            assert reply["error"]


class TestBudgets:
    def test_tightest_picks_the_smaller_bound(self):
        assert _tightest(None, None) is None
        assert _tightest(5.0, None) == 5.0
        assert _tightest(None, 3.0) == 3.0
        assert _tightest(5.0, 3.0) == 3.0
        assert _tightest(2.0, 3.0) == 2.0

    def test_request_may_tighten_but_not_exceed_ceilings(self, tmp_path):
        server = AnalysisServer(
            str(tmp_path / "s.sock"),
            config=TracerConfig(max_seconds=10.0, max_steps=1000),
        )
        config = server._request_config(
            {"config": {"max_seconds": 99.0, "max_steps": 5}}
        )
        assert config.max_seconds == 10.0  # clamped to the ceiling
        assert config.max_steps == 5  # tightened below it

    def test_unknown_override_is_rejected(self, server):
        reply = server.handle_request({
            "op": "solve",
            "kind": "typestate",
            "program": TYPESTATE_TEXT,
            "query": "check1",
            "config": {"engine": "compiled"},
        })
        assert reply["ok"] is False
        assert "unknown config overrides" in reply["error"]

    @pytest.mark.parametrize(
        "overrides",
        [
            json.loads('{"max_seconds": NaN}'),
            json.loads('{"max_steps": NaN}'),
            json.loads('{"max_seconds": Infinity}'),
            {"max_seconds": "10"},
            {"max_seconds": 0},
            {"k": "3"},
            {"k": True},
            {"k": 0},
            {"k": None},
            {"max_iterations": -1},
            {"max_iterations": 2.5},
            {"max_steps": 0},
            5,
        ],
        ids=repr,
    )
    def test_malformed_override_is_a_bad_request(self, server, overrides):
        reply = server.handle_request({
            "op": "solve",
            "kind": "typestate",
            "program": TYPESTATE_TEXT,
            "query": "check1",
            "config": overrides,
        })
        assert reply["ok"] is False
        assert reply["code"] == "bad_request", reply
        assert server.handle_request({"op": "stats"})["session"]["solves"] == 0

    def test_overrides_preserve_server_strictness(self, tmp_path):
        server = AnalysisServer(
            str(tmp_path / "s.sock"),
            config=TracerConfig(strict=False),
        )
        config = server._request_config({"config": {"k": 3}})
        assert config.k == 3
        assert config.strict is False


class TestSocketRoundTrip:
    def test_client_against_live_daemon(self, tmp_path):
        import asyncio

        from repro.serve.client import ServeClient, ServeError

        socket_path = str(tmp_path / "serve.sock")
        server = AnalysisServer(
            socket_path, store_path=str(tmp_path / "store.jsonl")
        )
        ready = threading.Event()

        def run():
            async def main():
                task = asyncio.ensure_future(server.run())
                while not (
                    server._server is not None and server._server.is_serving()
                ):
                    await asyncio.sleep(0.01)
                ready.set()
                await task

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=30)

        client = ServeClient(socket_path, timeout=120)
        assert client.ping()["pong"]
        reply = client.solve(
            "typestate", TYPESTATE_TEXT, query="check1"
        )
        assert reply["ok"] and reply["results"][0]["verdict"] == "proven"
        with pytest.raises(ServeError):
            client.request({"op": "nonsense"})
        assert client.stats()["requests_served"] >= 2
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestTelemetry:
    def test_request_id_minted_and_echoed(self, server):
        reply = server.handle_request({"op": "ping"})
        assert len(reply["request_id"]) == 16
        echoed = server.handle_request(
            {"op": "ping", "request_id": "client-chose-me"}
        )
        assert echoed["request_id"] == "client-chose-me"

    def test_spans_of_one_solve_share_the_request_trace_id(self, server):
        from repro.obs import MemorySink, tracing

        sink = MemorySink()
        with tracing(sink):
            reply = server.handle_request({
                "op": "solve",
                "kind": "typestate",
                "program": TYPESTATE_TEXT,
                "query": "check1",
            })
        request_id = reply["request_id"]
        spans = [r for r in sink.events if r.get("type") == "span_start"]
        events = [r for r in sink.events if r.get("type") == "event"]
        # The search itself ran inside the request scope...
        assert any(s["name"] == "query_group" for s in spans)
        # ...and every span and event carries the request id end to end.
        assert spans and all(s.get("trace") == request_id for s in spans)
        assert events and all(e.get("trace") == request_id for e in events)
        names = {e["name"] for e in events}
        assert {"request_received", "request_finished"} <= names

    def test_metrics_op_returns_parseable_prometheus_text(self, tmp_path):
        from repro.obs.export import parse_prometheus
        from repro.obs.metrics import scoped_registry

        with scoped_registry():
            fresh = AnalysisServer(
                str(tmp_path / "fresh.sock"),
                store_path=str(tmp_path / "fresh-store.jsonl"),
                config=TracerConfig(k=5, max_iterations=30),
            )
            request = {
                "op": "solve",
                "kind": "typestate",
                "program": TYPESTATE_TEXT,
                "query": "check1",
            }
            fresh.handle_request(request)
            fresh.handle_request(request)  # replay tier
            reply = fresh.handle_request({"op": "metrics"})
            assert reply["ok"]
            assert reply["format"] == "prometheus-text-0.0.4"
            parsed = parse_prometheus(reply["prometheus"])
            fresh.store.close()
        tiers = {
            labels["tier"]: value
            for labels, value in parsed["repro_warm_tier_total"]
        }
        assert tiers["cold"] == 1 and tiers["replay"] == 1
        latency = {
            labels.get("op"): value
            for labels, value in parsed["repro_request_seconds_count"]
        }
        assert latency["solve"] == 2
        assert "repro_request_queue_seconds_bucket" in parsed
        assert "repro_phase_seconds_sum" in parsed
        # The scrape itself is the one in-flight request when rendered.
        assert parsed["repro_in_flight_requests"] == [({}, 1)]

    def test_stats_carries_telemetry_snapshot(self, server):
        server.handle_request({"op": "ping"})
        reply = server.handle_request({"op": "stats"})
        assert reply["uptime_seconds"] >= 0.0
        telemetry = reply["telemetry"]
        # The only in-flight request is the stats call reading the
        # snapshot (dashboards filter it out client-side).
        assert [e["op"] for e in telemetry["in_flight"]] == ["stats"]
        assert telemetry["recent"][0]["op"] == "ping"
        assert telemetry["recent"][0]["ok"] is True

    def test_queue_wait_measured_from_enqueue_time(self, server):
        import time

        queued_at = time.perf_counter() - 0.25
        server.handle_request({"op": "ping"}, queued_at=queued_at)
        recent = server.telemetry.recent[-1]
        assert recent["queue_seconds"] >= 0.25

    def test_recent_ring_is_bounded(self, server):
        for _ in range(80):
            server.handle_request({"op": "ping"})
        assert len(server.telemetry.recent) == 64

    def test_request_finished_reports_failures_too(self, server):
        from repro.obs import MemorySink, tracing

        sink = MemorySink()
        with tracing(sink):
            server.handle_request({"op": "frobnicate"})
        finished = [r for r in sink.events
                    if r.get("name") == "request_finished"]
        assert finished[0]["attrs"]["ok"] is False
