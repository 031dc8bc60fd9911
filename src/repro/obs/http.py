"""A plain-HTTP ``/metrics`` listener for real Prometheus scrapers.

The socket protocol's ``metrics`` op already makes every serving peer
scrapeable by anything that speaks our framing; this module removes even
that requirement: :class:`MetricsHTTPServer` runs a stdlib
``ThreadingHTTPServer`` in a daemon thread answering ``GET /metrics``
with the rendered exposition text, so an off-the-shelf Prometheus (or
``curl``) can scrape a writer or replica directly.  Enabled by
``repro serve --metrics-port N`` / ``repro replicate --metrics-port N``.

The same listener answers the two orchestration probes (``GET`` or
``HEAD`` — load balancers commonly probe with ``HEAD``, which answers
the same status line and headers with no body):

``/healthz``
    Process liveness — always ``200 {"status": "ok"}`` while the
    listener thread is alive (a hung or dead process simply fails to
    answer, which is the signal).
``/readyz``
    Traffic readiness — evaluates the server's *readiness callback*
    (wired by the CLI to ``QueryService.readiness()``): ``200`` with a
    small JSON body when the node should receive traffic, ``503`` with
    the reason otherwise.  Without a callback the endpoint degrades to
    liveness.  The ``reason`` strings are part of the probe contract;
    the readiness table of ``docs/OPERATIONS.md`` §2 lists them per role.

Every probe is timed into a ``repro_probe_seconds{probe}`` histogram on
the listener's registry, so dashboards can tell a slow readiness check
(e.g. a store stat on a struggling disk) from a dead process.

No new dependency: only ``http.server`` — acceptable here because the
endpoint serves one small text document to trusted scrapers, not
production query traffic.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.obs.registry import MetricsRegistry, get_registry

#: A readiness callback: ``() -> (ready, JSON-safe detail dict)``.
ReadinessCheck = Callable[[], Tuple[bool, Dict[str, object]]]

#: The bounded label vocabulary for ``repro_probe_seconds``.
_PROBES = ("healthz", "readyz", "metrics")

#: Seconds between serve_forever's checks of its shutdown flag — the most
#: ``close()`` waits for the accept loop to stop (the stdlib default is 0.5).
_SHUTDOWN_POLL = 0.02


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._serve(include_body=True)

    def do_HEAD(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._serve(include_body=False)

    def _serve(self, include_body: bool) -> None:
        path = self.path.split("?", 1)[0]
        self._include_body = include_body
        probe = {"/healthz": "healthz", "/readyz": "readyz"}.get(path)
        if probe is None and path in ("/metrics", "/"):
            probe = "metrics"
        if probe is None:
            self.send_error(404, "only /metrics, /healthz and /readyz are served here")
            return
        timer = self.server.probe_timers[probe]  # type: ignore[attr-defined]
        start = time.perf_counter()
        try:
            if probe == "healthz":
                self._send_json(200, {"status": "ok"})
            elif probe == "readyz":
                self._serve_readyz()
            else:
                self._serve_metrics()
        finally:
            timer.observe(time.perf_counter() - start)

    def _serve_metrics(self) -> None:
        # Resolved per scrape: a pinned registry if the server has one,
        # else whatever the process default is *now* (use_registry-aware).
        registry = self.server.registry or get_registry()  # type: ignore[attr-defined]
        body = render_prometheus(registry).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self._include_body:
            self.wfile.write(body)

    def _serve_readyz(self) -> None:
        check = self.server.readiness  # type: ignore[attr-defined]
        ready, detail = True, {}
        if check is not None:
            try:
                ready, detail = check()
            except Exception as exc:  # a probe must never 500 the listener
                ready, detail = False, {"error": str(exc)}
        payload: Dict[str, object] = {"status": "ok" if ready else "unavailable"}
        payload.update(detail or {})
        self._send_json(200 if ready else 503, payload)

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self._include_body:
            self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # scrapes must not spam the serving process's stdout


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Registry pinned by MetricsHTTPServer (None: live process default).
    registry: Optional[MetricsRegistry] = None
    #: Readiness callback for /readyz (None: always ready while alive).
    readiness: Optional[ReadinessCheck] = None
    #: Per-probe histogram children for repro_probe_seconds.
    probe_timers: Dict[str, object] = {}


class MetricsHTTPServer:
    """Serve ``GET /metrics`` from a registry on a background thread.

    Parameters
    ----------
    port:
        TCP port to bind (``0`` picks an ephemeral one; read it back
        from :attr:`port`).
    host:
        Bind address (default loopback; bind ``0.0.0.0`` explicitly to
        expose metrics beyond the machine).
    registry:
        Registry to render; ``None`` (default) renders the process
        default registry at scrape time.
    readiness:
        Optional ``() -> (ready, detail dict)`` callback backing
        ``GET /readyz``; without one the probe mirrors liveness.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
        readiness: Optional[ReadinessCheck] = None,
    ) -> None:
        self._httpd = _Server((host, int(port)), _MetricsHandler)
        self._httpd.registry = registry
        self._httpd.readiness = readiness
        histogram = (registry if registry is not None else get_registry()).histogram(
            "repro_probe_seconds",
            "Wall time answering one HTTP probe/scrape, by endpoint.",
            ("probe",),
        )
        self._httpd.probe_timers = {p: histogram.labels(probe=p) for p in _PROBES}
        self._thread: Optional[threading.Thread] = None
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsHTTPServer":
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL},
            name=f"repro-metrics-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            self._httpd.server_close()
            return
        self._httpd.shutdown()
        self._thread.join(timeout=timeout)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "serving" if self._thread is not None else "stopped"
        return f"MetricsHTTPServer({self.host}:{self.port}, {state})"
