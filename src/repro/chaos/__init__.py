"""Chaos engineering for the serving stack: failpoints and the harness.

``repro.chaos.failpoints``
    Dependency-free failpoint handles, declared once and imported by the
    WAL, compaction, shard fault-in, admission, transport, and replication
    paths — activated in-process or via ``REPRO_FAILPOINTS`` (inherited by
    spawn-based subprocesses), controllable on live servers through the
    gated ``chaos`` wire op.

``repro.chaos.harness``
    Drives ``repro`` CLI subprocesses and checks what a store serves: the
    ``SLinePipeline`` oracle and the ``acked ⊆ served ⊆ acked ∪
    in-flight`` durability check.  The crash model
    (``tests/chaos/test_crash_model.py``) and the subprocess drills
    (``tests/chaos/drills.py``) share them.
"""
