#!/usr/bin/env python
"""Executable documentation checks (the CI ``docs`` job).

Three guarantees about README.md and docs/*.md, so the prose cannot
silently rot away from the code:

1. **Quickstart blocks run.**  Fenced code blocks tagged ``python run``
   are executed — per document, in order, sharing one namespace (so a
   later block may use names an earlier one defined) — inside a
   temporary working directory, so relative store paths like ``idx/``
   land in a scratch store and leave the repo untouched.
2. **Every other Python block parses.**  Blocks tagged plain ``python``
   are ``compile()``-checked; a typo'd example fails CI even when the
   example is not runnable in isolation (network addresses, elided
   context).
3. **Intra-repo links resolve.**  Relative markdown link targets
   (anchors stripped) must exist on disk, relative to the document.
4. **Contract tables mirror the code.**  ``docs/PROTOCOL.md``'s op table
   (§3) and error-code table (§5) are compared with the rows *imported*
   from ``repro.service.contract``, and ``docs/OPERATIONS.md``'s metrics
   catalogue (§3) with the live registry of one of each component that
   registers metrics — name, type and label names, row for row.

Exit status is non-zero when any check fails; failures are reported
with ``file:line`` so they are clickable in CI logs.

Usage::

    PYTHONPATH=src python tools/check_docs.py [files...]

With no arguments, checks README.md and every ``docs/*.md``.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

FENCE_RE = re.compile(r"^(`{3,})(.*)$")
# [text](target) — good enough for our own docs; skips images' ! on purpose
# (image targets are checked the same way).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")
#: Split markdown table cells on unescaped pipes only.
CELL_SPLIT_RE = re.compile(r"(?<!\\)\|")


def default_documents():
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return docs


def extract_blocks(text):
    """Yield ``(info_string, start_line, source)`` per fenced code block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = FENCE_RE.match(lines[i])
        if not match:
            i += 1
            continue
        fence, info = match.group(1), match.group(2).strip().lower()
        start = i + 2  # 1-indexed line of the block's first code line
        body = []
        i += 1
        while i < len(lines) and not lines[i].startswith(fence):
            body.append(lines[i])
            i += 1
        i += 1  # closing fence
        yield info, start, "\n".join(body) + "\n"


def check_links(doc, text):
    """Return error strings for relative link targets that do not exist."""
    errors = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(EXTERNAL_SCHEMES):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure intra-document anchor
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{doc}:{lineno}: broken link -> {target}")
    return errors


def check_python_blocks(doc, text):
    """Execute ``python run`` blocks (shared namespace, temp cwd) and
    compile-check plain ``python`` blocks.  Returns error strings."""
    errors = []
    namespace = {"__name__": "__docs__"}
    original_cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        os.chdir(scratch)
        try:
            for info, start, source in extract_blocks(text):
                if info not in ("python", "python run"):
                    continue
                label = f"{doc}:{start}"
                try:
                    code = compile(source, f"{label} (doc block)", "exec")
                except SyntaxError:
                    errors.append(f"{label}: doc block does not parse\n"
                                  + traceback.format_exc(limit=0).rstrip())
                    continue
                if info != "python run":
                    continue
                try:
                    exec(code, namespace)
                except Exception:
                    errors.append(f"{label}: doc block raised\n"
                                  + traceback.format_exc().rstrip())
                    # Later blocks likely depend on this one; stop the file.
                    break
        finally:
            os.chdir(original_cwd)
    return errors


def table_rows(lines, header_cells):
    """``[(lineno, key, value)]`` of the first table whose header starts
    with ``header_cells``: the key is a row's first cell, the value its
    next ``len(header_cells) - 1`` cells joined by `` / `` (backticks
    stripped)."""
    rows = []
    in_table = False
    width = len(header_cells)
    wanted = [h.lower() for h in header_cells]
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line.startswith("|"):
            if in_table:
                break
            continue
        cells = [c.strip().strip("`") for c in CELL_SPLIT_RE.split(line.strip("|"))]
        if not in_table:
            in_table = [c.lower() for c in cells[:width]] == wanted
            continue
        if set("".join(cells)) <= {"-", " ", ":"}:
            continue  # separator row
        rows.append((lineno, cells[0], " / ".join(cells[1:width])))
    return rows


def _compare_table(doc, what, rows, expected):
    """Error strings for a docs table that is not exactly ``expected``.

    ``rows`` is ``[(lineno, key, value)]`` as documented, ``expected`` the
    ``{key: value}`` the code declares.  A missing row is anchored at the
    table's last line — where it would be added.
    """
    if not rows:
        return [f"{doc}:0: {what} table not found"]
    errors = []
    for lineno, key, value in rows:
        if key not in expected:
            errors.append(f"{doc}:{lineno}: documents unknown {what} {key!r}")
        elif value != expected[key]:
            errors.append(
                f"{doc}:{lineno}: {what} {key!r} documented as {value}, "
                f"the contract says {expected[key]}"
            )
    documented = {key for _, key, _ in rows}
    for key in expected:
        if key not in documented:
            errors.append(
                f"{doc}:{rows[-1][0]}: {what} {key!r} ({expected[key]}) "
                "missing from the table"
            )
    return errors


def check_protocol_tables(doc):
    """PROTOCOL.md's op (§3) and error-code (§5) tables vs the rows of
    ``repro.service.contract``."""
    from repro.service import contract

    lines = doc.read_text(encoding="utf-8").splitlines()
    yes_no = {True: "yes", False: "no"}
    ops = {
        op.name: f"{yes_no[op.idempotent]} / {yes_no[op.fanout_read]}"
        for op in contract.OPS
    }
    codes = {
        value: name for name, value in vars(contract).items() if name.startswith("E_")
    }
    op_header = ["Op", "Auto-retried after a reconnect", "Fan-out read"]
    return _compare_table(doc, "op", table_rows(lines, op_header), ops) + _compare_table(
        doc, "error code", table_rows(lines, ["Code", "Constant"]), codes
    )


def registered_metrics():
    """``{name: "type / labels"}`` as the stack registers them.

    Builds one of each component that registers metrics — a writer
    ``QueryService`` with background compaction, a ``SocketServer``, a
    ``StoreMirror``, a ``MetricsHTTPServer``, the process gauges and one
    armed failpoint — against a fresh registry in a temp dir, and reads
    back what they registered.
    """
    from repro import CompactionPolicy, QueryService, hypergraph_from_edge_lists
    from repro.store import IndexStore
    from repro.chaos import failpoints
    from repro.obs import (
        MetricsHTTPServer,
        MetricsRegistry,
        register_process_metrics,
        use_registry,
    )
    from repro.service.transport import SocketServer
    from repro.store.replication import LocalReplicationSource, StoreMirror

    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="repro-metrics-") as scratch, use_registry(registry):
        store = os.path.join(scratch, "idx")
        IndexStore.build(hypergraph_from_edge_lists([[0, 1], [1, 2]]), store)
        with QueryService(store, compaction=CompactionPolicy(max_wal_records=1024)) as service:
            SocketServer(service).close()
            StoreMirror(LocalReplicationSource(store), os.path.join(scratch, "mirror"))
        MetricsHTTPServer().close()
        register_process_metrics()
        point = next(iter(failpoints.CATALOGUE))
        failpoints.activate(point, "delay", 0)
        failpoints.deactivate(point)
    return {
        metric.name: f"{metric.kind} / {', '.join(metric.labelnames) or '—'}"
        for metric in registry.collect()
    }


def check_contract_tables(doc):
    """Verify a doc's contract tables against the code.

    Only PROTOCOL.md and OPERATIONS.md carry such tables; other
    documents return no errors.  Returns error strings.
    """
    if doc.name == "PROTOCOL.md":
        return check_protocol_tables(doc)
    if doc.name == "OPERATIONS.md":
        lines = doc.read_text(encoding="utf-8").splitlines()
        rows = table_rows(lines, ["Metric", "Type", "Labels"])
        return _compare_table(doc, "metric", rows, registered_metrics())
    return []


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    documents = [Path(a).resolve() for a in argv] or default_documents()
    failures = []
    for doc in documents:
        if not doc.exists():
            failures.append(f"{doc}: no such document")
            continue
        text = doc.read_text(encoding="utf-8")
        failures.extend(check_links(doc, text))
        failures.extend(check_python_blocks(doc, text))
        failures.extend(check_contract_tables(doc))
        blocks = list(extract_blocks(text))
        ran = sum(1 for info, _, _ in blocks if info == "python run")
        compiled = sum(1 for info, _, _ in blocks if info == "python")
        print(f"{doc.relative_to(REPO_ROOT)}: "
              f"{ran} block(s) executed, {compiled} compile-checked")
    if failures:
        print("\n--- docs check failures ---", file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("docs check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
