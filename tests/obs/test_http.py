"""The plain-HTTP /metrics listener and its /healthz + /readyz probes."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.chaos.harness import wait_until
from repro.obs import (
    CONTENT_TYPE,
    MetricsHTTPServer,
    MetricsRegistry,
    use_registry,
)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("scraped_total", "scrapes observed").inc(7)
    return reg


class TestScrape:
    def test_get_metrics_serves_the_exposition_text(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            with urllib.request.urlopen(server.url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
        assert "# TYPE scraped_total counter" in body
        assert "scraped_total 7" in body

    def test_root_path_serves_metrics_too(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            body = urllib.request.urlopen(
                f"http://{server.host}:{server.port}/"
            ).read().decode("utf-8")
        assert "scraped_total 7" in body

    def test_other_paths_are_404(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{server.host}:{server.port}/nope")
            assert err.value.code == 404

    def test_scrape_reflects_live_values(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            registry.get("scraped_total").inc(3)
            body = urllib.request.urlopen(server.url).read().decode("utf-8")
        assert "scraped_total 10" in body

    def test_unpinned_server_follows_the_process_registry(self):
        with MetricsHTTPServer() as server:
            with use_registry(MetricsRegistry()) as reg:
                reg.gauge("live").set(4)
                body = urllib.request.urlopen(server.url).read().decode("utf-8")
                assert "live 4" in body

    def test_ephemeral_port_is_resolved(self, registry):
        with MetricsHTTPServer(port=0, registry=registry) as server:
            assert server.port > 0
            assert server.address == (server.host, server.port)
            assert str(server.port) in server.url

    def test_close_is_idempotent(self, registry):
        server = MetricsHTTPServer(registry=registry).start()
        server.close()
        server.close()


def _get_json(server, path):
    try:
        with urllib.request.urlopen(
            f"http://{server.host}:{server.port}{path}"
        ) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


class TestProbes:
    def test_healthz_is_always_ok(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            status, body = _get_json(server, "/healthz")
        assert status == 200
        assert body == {"status": "ok"}

    def test_readyz_without_a_check_reports_liveness_only(self, registry):
        """A listener with no readiness callback (PR-6 style) stays 200:
        being up is the only thing it can attest to."""
        with MetricsHTTPServer(registry=registry) as server:
            status, body = _get_json(server, "/readyz")
        assert status == 200
        assert body["status"] == "ok"

    def test_readyz_reflects_the_callback(self, registry):
        state = {"ready": True}

        def readiness():
            return state["ready"], {"role": "writer", "generation": 3}

        with MetricsHTTPServer(registry=registry, readiness=readiness) as server:
            status, body = _get_json(server, "/readyz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["role"] == "writer" and body["generation"] == 3

            state["ready"] = False
            status, body = _get_json(server, "/readyz")
            assert status == 503
            assert body["status"] == "unavailable"

    def test_readyz_callback_failure_is_503_not_500(self, registry):
        def readiness():
            raise RuntimeError("probe exploded")

        with MetricsHTTPServer(registry=registry, readiness=readiness) as server:
            status, body = _get_json(server, "/readyz")
        assert status == 503
        assert "probe exploded" in body["error"]


def _head(server, path):
    request = urllib.request.Request(
        f"http://{server.host}:{server.port}{path}", method="HEAD"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


class TestHeadProbes:
    """Load balancers probe with HEAD: same status + headers, no body."""

    def test_head_healthz_and_metrics_have_no_body(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            status, headers, body = _head(server, "/healthz")
            assert (status, body) == (200, b"")
            assert headers["Content-Type"] == "application/json"
            assert int(headers["Content-Length"]) > 0

            status, headers, body = _head(server, "/metrics")
            assert (status, body) == (200, b"")
            assert int(headers["Content-Length"]) > 0

    def test_head_readyz_mirrors_get_status(self, registry):
        state = {"ready": True}
        with MetricsHTTPServer(
            registry=registry,
            readiness=lambda: (state["ready"], {"reason": "x"}),
        ) as server:
            assert _head(server, "/readyz")[0] == 200
            state["ready"] = False
            status, _, body = _head(server, "/readyz")
            assert (status, body) == (503, b"")


class TestShutdown:
    def test_close_does_not_wait_out_the_stdlib_poll_tick(self, registry):
        """close() waits for serve_forever's loop to notice the shutdown
        flag: one poll interval, which must not be the stdlib's 0.5 s."""
        server = MetricsHTTPServer(registry=registry).start()
        assert _get_json(server, "/healthz")[0] == 200
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 0.1
        server.close()  # still idempotent


class TestProbeTiming:
    def test_every_probe_is_timed_into_the_histogram(self, registry):
        with MetricsHTTPServer(registry=registry) as server:
            _get_json(server, "/healthz")
            _get_json(server, "/readyz")
            urllib.request.urlopen(server.url).read()
            _head(server, "/healthz")
            # A handler observes its own wall time *after* answering, so a
            # client can be back before the sample of its last probe lands.
            timers = server._httpd.probe_timers
            expected = {"healthz": 2, "readyz": 1, "metrics": 1}
            wait_until(
                lambda: all(timers[probe].count >= n for probe, n in expected.items()),
                timeout=5.0,
                interval=0.001,
                description="every probe's sample to land",
            )
            body = urllib.request.urlopen(server.url).read().decode("utf-8")
        # healthz: 1 GET + 1 HEAD; metrics: first scrape + this one (the
        # second scrape observes itself only after rendering).
        assert 'repro_probe_seconds_count{probe="healthz"} 2' in body
        assert 'repro_probe_seconds_count{probe="readyz"} 1' in body
        assert 'repro_probe_seconds_count{probe="metrics"} 1' in body
