"""HTTP/SSE wire layer and the ``serve`` CLI subcommand.

The server runs on the test's own event loop; the blocking
:class:`StreamClient` is driven through ``asyncio.to_thread`` so its
socket calls never stall the loop serving them.  The CLI test runs
``repro-copydetect serve`` as a real subprocess and exercises the
graceful SIGINT drain.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.streaming import (
    StreamClient,
    StreamClientError,
    StreamEngine,
    StreamingServer,
    StreamingService,
)

from tests.test_streaming import copying_pair, make_world

REPO = Path(__file__).resolve().parent.parent


def run_with_server(tmp_path, scenario, **service_kwargs):
    """Start a server on a free port, run ``await scenario(client)``, stop."""
    defaults = dict(max_batch=10_000, max_delay=0.2, debounce=0.02)
    defaults.update(service_kwargs)

    async def main():
        engine = StreamEngine(store=tmp_path / "store")
        service = StreamingService(engine, **defaults)
        server = StreamingServer(service, port=0)
        await server.start()
        try:
            client = StreamClient(port=server.port, timeout=15.0)
            return await scenario(client, service, server)
        finally:
            await server.stop(drain=True)

    return asyncio.run(main())


def in_thread(fn, *args, **kwargs):
    """Run a blocking client call off the event loop."""
    return asyncio.to_thread(fn, *args, **kwargs)


class TestHttpRoundTrip:
    def test_post_claims_then_query_everything(self, tmp_path):
        world = make_world()

        async def scenario(client, service, server):
            reply = await in_thread(
                client.post_claims, [d.to_json() for d in world]
            )
            assert reply["accepted"] == len(world)
            await service.flush()

            stats = await in_thread(client.stats)
            names = service.state.dataset.source_names
            s1, s2 = copying_pair(service.state)

            verdict = await in_thread(client.get_verdict, s1, s2)
            truth = await in_thread(client.get_truth, "I00")
            explanation = await in_thread(client.explain_pair, s1, s2)
            missing = await in_thread(
                client.get_verdict, names.index("S0"), names.index("S1")
            )
            return stats, verdict, truth, explanation, missing

        stats, verdict, truth, explanation, missing = run_with_server(
            tmp_path, scenario
        )
        assert stats["epochs_run"] == 1
        assert stats["snapshot_id"] == 1
        assert verdict is not None
        assert verdict["copying"] is True
        assert verdict["snapshot_id"] == 1
        assert truth["item_name"] == "I00"
        assert truth["value_label"]
        assert truth["snapshot_id"] == 1
        assert explanation["observed"] is True
        assert explanation["top_evidence"]
        # An independent pair may be served (verdict dict) or never
        # observed (None) — both are valid 200 replies, never an error.
        assert missing is None or missing["copying"] is False

    def test_unobserved_pair_is_an_answer_not_an_error(self, tmp_path):
        world = make_world()

        async def scenario(client, service, server):
            await in_thread(client.post_claims, world)
            await service.flush()
            await in_thread(
                client.post_claims,
                [{"source": "LONER", "item": "ONLY-MINE", "value": "solo"}],
            )
            await service.flush()
            names = service.state.dataset.source_names
            return await in_thread(
                client.explain_pair,
                names.index("S0"),
                names.index("LONER"),
            )

        explanation = run_with_server(tmp_path, scenario)
        assert explanation["observed"] is False
        assert "detail" in explanation

    def test_sse_events_carry_epochs_and_shutdown(self, tmp_path):
        world = make_world()

        async def scenario(client, service, server):
            events: list[dict] = []

            def consume():
                for event in client.events():
                    events.append(event)

            consumer = asyncio.create_task(in_thread(consume))
            await asyncio.sleep(0.05)  # let the subscription attach
            await in_thread(client.post_claims, world)
            await service.flush()
            await server.stop(drain=True)
            # EOF may beat the shutdown frame; the generator must end
            # cleanly either way.
            await asyncio.wait_for(consumer, timeout=10.0)
            return events

        events = run_with_server(tmp_path, scenario)
        assert events[0]["event"] == "hello"
        epoch_events = [e for e in events if e["event"] == "epoch"]
        assert len(epoch_events) == 1
        assert epoch_events[0]["epoch"] == 1
        assert epoch_events[0]["snapshot_id"] == 1
        assert epoch_events[0]["converged"] in (True, False)


class TestHttpErrors:
    def test_queries_before_first_epoch_conflict(self, tmp_path):
        async def scenario(client, service, server):
            statuses = {}
            for name, call in [
                ("verdict", lambda: client.get_verdict(0, 1)),
                ("truth", lambda: client.get_truth("I00")),
                ("explain", lambda: client.explain_pair(0, 1)),
            ]:
                try:
                    await in_thread(call)
                except StreamClientError as exc:
                    statuses[name] = exc.status
            return statuses

        statuses = run_with_server(tmp_path, scenario)
        assert statuses == {"verdict": 409, "truth": 409, "explain": 409}

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("/verdict", 400),  # missing s1/s2
            ("/verdict?s1=x&s2=1", 400),  # non-integer
            ("/truth", 400),  # missing item
            ("/nope", 404),
            ("/verdict?s1=0&s2=1", 409),  # well-formed but too early
        ],
    )
    def test_get_error_statuses(self, tmp_path, path, expected):
        async def scenario(client, service, server):
            try:
                await in_thread(client._request, "GET", path)
            except StreamClientError as exc:
                return exc.status
            return 200

        assert run_with_server(tmp_path, scenario) == expected

    def test_wrong_methods_are_405(self, tmp_path):
        async def scenario(client, service, server):
            statuses = []
            for method, path in [("GET", "/claims"), ("POST", "/stats")]:
                try:
                    await in_thread(client._request, method, path, b"{}")
                except StreamClientError as exc:
                    statuses.append(exc.status)
            return statuses

        assert run_with_server(tmp_path, scenario) == [405, 405]

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b'{"claims": 7}',
            b'{"claims": [{"source": "S0"}]}',
            b'{"claims": [{"source": "S0", "item": "I", "value": 3}]}',
        ],
    )
    def test_malformed_claim_posts_are_400(self, tmp_path, body):
        async def scenario(client, service, server):
            try:
                await in_thread(client._request, "POST", "/claims", body)
            except StreamClientError as exc:
                return exc.status
            return 202

        assert run_with_server(tmp_path, scenario) == 400

    def test_bare_list_body_is_accepted(self, tmp_path):
        async def scenario(client, service, server):
            body = json.dumps(
                [{"source": "S0", "item": "NJ", "value": "Trenton"}]
            ).encode()
            reply = await in_thread(client._request, "POST", "/claims", body)
            await service.flush()
            return reply

        reply = run_with_server(tmp_path, scenario)
        assert reply["accepted"] == 1

    def test_a_failed_epoch_reaches_stats_and_the_next_post_is_served(
        self, tmp_path
    ):
        from tests.test_streaming import PoisonedEngine

        async def main():
            service = StreamingService(
                PoisonedEngine(store=tmp_path / "store"), debounce=0.02
            )
            server = StreamingServer(service, port=0)
            await server.start()
            try:
                client = StreamClient(port=server.port, timeout=15.0)
                poison = [{"source": "POISON", "item": "I00", "value": "v"}]
                await in_thread(client.post_claims, poison)
                await asyncio.wait_for(service.flush(), timeout=10.0)
                failed = await in_thread(client.stats)
                await in_thread(client.post_claims, make_world())
                await asyncio.wait_for(service.flush(), timeout=10.0)
                return failed, await in_thread(client.stats)
            finally:
                await server.stop(drain=True)

        failed, after = asyncio.run(main())
        assert failed["epochs_failed"] == 1
        assert failed["last_error"] == "RuntimeError: poisoned batch"
        assert failed["epochs_run"] == 0 and failed["snapshot_id"] is None
        assert after["epochs_run"] == 1 and after["snapshot_id"] == 1
        assert after["speculations_committed"] == 1
        assert after["speculations_discarded"] == 0


class TestServeCli:
    """``repro-copydetect serve`` as a real process, SIGINT drain included."""

    @pytest.fixture()
    def server_process(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        store = tmp_path / "verdicts"
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "serve",
                "--port",
                "0",
                "--store",
                str(store),
                "--max-delay",
                "0.2",
                "--debounce",
                "0.02",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "streaming service on http://" in banner, banner
            port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            yield process, port, store
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_serve_accepts_claims_and_drains_on_sigint(self, server_process):
        process, port, store = server_process
        world = make_world()
        body = json.dumps({"claims": [d.to_json() for d in world]}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/claims",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=15) as reply:
            assert reply.status == 202

        # Wait for the epoch to publish, then query through the wire.
        deadline = time.monotonic() + 15
        stats = {}
        while time.monotonic() < deadline:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/stats", timeout=15
            ) as reply:
                stats = json.loads(reply.read())
            if stats.get("epochs_run", 0) >= 1:
                break
            time.sleep(0.05)
        assert stats["epochs_run"] >= 1
        assert stats["snapshot_id"] == 1

        process.send_signal(signal.SIGINT)
        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0, out
        assert "drained" in out
        assert (store / "CURRENT").exists()
        assert any(store.glob("snap-*.rvs"))
