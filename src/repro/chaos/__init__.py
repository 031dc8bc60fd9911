"""Chaos engineering for the serving stack: failpoints, harness, scenarios.

``repro.chaos.failpoints``
    Dependency-free failpoint handles, declared once and imported by the
    WAL, compaction, shard fault-in, admission, transport, and replication
    paths — activated in-process or via ``REPRO_FAILPOINTS`` (inherited by
    spawn-based subprocesses), controllable on live servers through the
    gated ``chaos`` wire op.

``repro.chaos.harness``
    Scenario runner: stands up a writer ``SocketServer`` plus chained
    ``RemoteReadReplica`` subprocesses under mixed query/update traffic,
    injects scripted faults, and asserts data invariants (acked updates
    survive, mirrors converge byte-identical, served metrics equal the
    ``SLinePipeline`` oracle) and observability invariants (lag gauges,
    ``/readyz`` flips, slow requests keep their traces).

``repro.chaos.scenarios``
    The named scenarios behind ``repro chaos --scenario NAME``, each
    emitting per-axis ``AXES_*.json`` artefacts gated independently by
    ``benchmarks/check_axes.py``.
"""

from repro.chaos.failpoints import (
    FailpointDropConnection,
    FailpointError,
    activate,
    deactivate,
    install_from_env,
    is_active,
    remote_control_enabled,
    reset,
)

__all__ = [
    "FailpointDropConnection",
    "FailpointError",
    "activate",
    "deactivate",
    "install_from_env",
    "is_active",
    "remote_control_enabled",
    "reset",
]
