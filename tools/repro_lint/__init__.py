"""repro_lint — repo-specific static analysis + runtime lock checking.

Two halves:

* **Static** (``repro-lint`` CLI / ``cli.py``): stdlib-``ast`` passes over
  ``src/`` that machine-check the concurrency and durability invariants
  documented in ``docs/INVARIANTS.md`` — lock-order discipline, blocking
  calls under hot-path locks, wall-clock-free lag math, no swallowed
  exceptions in durability hot paths, and fsync-before-ack ordering in
  the admission commit path.  The contracts (ops, error codes,
  failpoints, metrics) need no rule: each is declared once in code, and
  ``tools/check_docs.py`` compares the docs tables with the live
  declarations.

* **Runtime** (``lockcheck.py``): an instrumented-lock shim (activated by
  ``REPRO_LOCKCHECK=1``, zero-cost when off) that records the global
  lock-acquisition-order graph across threads while the tier-2
  concurrency/chaos suites run, and fails on cycles or over-threshold
  holds.

No third-party dependencies; everything here runs on the stdlib alone so
the lint gate cannot rot when the runtime environment is minimal.
"""

from repro_lint.model import Finding  # noqa: F401

__all__ = ["Finding"]
