"""Contract-consistency checks: a declared table vs the call sites it names.

Two registries have consumers that are *call sites* scattered over
``src/`` — no single declaration can make them agree by construction, so
these checks cross-reference them mechanically:

* ``failpoint-contract`` — the ``CATALOGUE`` in ``chaos/failpoints.py``
  vs the compiled ``fire()``/``_failpoint()`` call sites.
* ``metrics-doc-contract`` — metric names registered anywhere in
  ``src/`` vs the catalogue table in ``docs/OPERATIONS.md``.

(The op vocabulary and the error-code map need no rule: they are declared
once in ``repro/service/contract.py`` and everything else derives from
that module; ``tools/check_docs.py`` compares PROTOCOL.md's tables with
the imported rows.)

``check_metrics_catalogue`` and ``table_rows`` are also imported by
``tools/check_docs.py`` so the docs CI job reads the tables through the
same parser (shared, not duplicated).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro_lint.model import Finding, SourceFile

RULE_FAILPOINTS = "failpoint-contract"
RULE_METRICS_DOC = "metrics-doc-contract"

_FAILPOINTS = "chaos/failpoints.py"

_METRIC_NAME_RE = re.compile(r"^(repro_|process_|chaos_)[a-z0-9_]+$")
#: Split markdown table cells on unescaped pipes only.
_CELL_SPLIT_RE = re.compile(r"(?<!\\)\|")


# --------------------------------------------------------------------- #
# AST extraction helpers
# --------------------------------------------------------------------- #
def _find_assignment(tree: ast.AST, name: str) -> Optional[ast.AST]:
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id == name:
                return stmt.value
    return None


def dict_literal_keys(value: Optional[ast.AST]) -> Set[str]:
    if not isinstance(value, ast.Dict):
        return set()
    return {
        key.value
        for key in value.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def extract_fire_sites(sources: Sequence[SourceFile]) -> List[Tuple[str, str, int]]:
    """All literal failpoint names passed to ``fire()`` / ``_failpoint()``."""
    sites: List[Tuple[str, str, int]] = []
    for source in sources:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in ("fire", "_failpoint"):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                sites.append((arg.value, source.relpath, node.lineno))
    return sites


def extract_registered_metrics(
    sources: Sequence[SourceFile],
) -> Dict[str, Tuple[str, int]]:
    """Metric name -> first registration site, from ``.counter("x")`` /
    ``.gauge("x")`` / ``.histogram("x")`` calls anywhere in the tree."""
    out: Dict[str, Tuple[str, int]] = {}
    for source in sources:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("counter", "gauge", "histogram")
            ):
                continue
            arg = node.args[0]
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and _METRIC_NAME_RE.match(arg.value)
            ):
                out.setdefault(arg.value, (source.relpath, node.lineno))
    return out


# --------------------------------------------------------------------- #
# Markdown table parsing
# --------------------------------------------------------------------- #
def table_rows(
    lines: Sequence[str], header_cells: Sequence[str], start: int = 0
) -> List[Tuple[int, List[str]]]:
    """Rows of the first table whose header starts with ``header_cells``;
    each row is ``(lineno, cells)`` with backticks stripped."""
    rows: List[Tuple[int, List[str]]] = []
    in_table = False
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line.startswith("|"):
            if in_table:
                break
            continue
        cells = [c.strip() for c in _CELL_SPLIT_RE.split(line.strip("|"))]
        if not in_table:
            lowered = [c.strip("`").lower() for c in cells]
            wanted = [h.lower() for h in header_cells]
            if lowered[: len(wanted)] == wanted:
                in_table = True
            continue
        if set("".join(cells)) <= {"-", " ", ":"}:
            continue  # separator row
        rows.append((lineno + 1, [c.strip("`") for c in cells]))
    return rows


def expand_metric_cell(token: str) -> List[str]:
    """Expand catalogue shorthand to bare metric names.

    ``wal_appended_{records,bytes}_total`` -> two names;
    ``request_seconds{op=…}`` and ``request_errors_total{op,code}`` ->
    label group stripped.  A brace group is a name expansion only when it
    has a comma, no ``=``, and is followed by further name characters —
    a trailing group is always a label set.
    """

    def expand(text: str) -> List[str]:
        for match in re.finditer(r"\{([^{}]*)\}", text):
            inner = match.group(1)
            tail = text[match.end() : match.end() + 1]
            if "," in inner and "=" not in inner and (tail.isalnum() or tail == "_"):
                return [
                    name
                    for part in inner.split(",")
                    for name in expand(
                        text[: match.start()] + part + text[match.end() :]
                    )
                ]
        return [text]

    names = []
    for candidate in expand(token):
        candidate = re.sub(r"\{[^{}]*\}", "", candidate)
        if re.fullmatch(r"[a-z][a-z0-9_]*", candidate):
            names.append(candidate)
    return names


def parse_metrics_catalogue(operations_md: Path) -> Dict[str, int]:
    """Fully-prefixed metric name -> lineno from OPERATIONS.md §3.

    The table lists names with the ``repro_`` prefix stripped (the
    ``process_*`` and ``chaos_*`` families are registered unprefixed and
    appear verbatim).
    """
    lines = operations_md.read_text(encoding="utf-8").splitlines()
    start = next(
        (
            i
            for i, line in enumerate(lines)
            if line.startswith("##") and "metrics catalogue" in line.lower()
        ),
        0,
    )
    out: Dict[str, int] = {}
    for lineno, cells in table_rows(lines, ["Layer", "Metrics"], start=start):
        if len(cells) < 2:
            continue
        for token in re.findall(r"`([^`]+)`", lines[lineno - 1]):
            for name in expand_metric_cell(token):
                if not name.startswith(("process_", "chaos_")):
                    name = f"repro_{name}"
                out.setdefault(name, lineno)
    return out


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #
def check_failpoint_registry(
    src_root: Path, sources: Sequence[SourceFile]
) -> List[Finding]:
    """CATALOGUE keys and compiled fire sites must match both ways."""
    failpoints = next((s for s in sources if s.relpath == _FAILPOINTS), None)
    if failpoints is None:
        return [
            Finding(
                RULE_FAILPOINTS,
                _FAILPOINTS,
                0,
                f"anchor file missing under {src_root} — contract unverifiable",
            )
        ]
    catalogue = dict_literal_keys(_find_assignment(failpoints.tree, "CATALOGUE"))
    if not catalogue:
        return [
            Finding(
                RULE_FAILPOINTS,
                failpoints.relpath,
                1,
                "CATALOGUE dict literal not found",
            )
        ]
    findings: List[Finding] = []
    fired: Set[str] = set()
    for name, relpath, lineno in extract_fire_sites(sources):
        fired.add(name)
        if name not in catalogue:
            findings.append(
                Finding(
                    RULE_FAILPOINTS,
                    relpath,
                    lineno,
                    f"fires unknown failpoint {name!r} (not in CATALOGUE)",
                )
            )
    for name in sorted(catalogue - fired):
        findings.append(
            Finding(
                RULE_FAILPOINTS,
                failpoints.relpath,
                1,
                f"catalogued failpoint {name!r} has no compiled fire() site",
            )
        )
    return findings


def check_metrics_catalogue(
    src_root: Path,
    operations_md: Path,
    sources: Optional[Sequence[SourceFile]] = None,
) -> List[Finding]:
    """Registered metric names vs the OPERATIONS.md catalogue, both ways."""
    if sources is None:
        from repro_lint.model import load_tree

        sources = load_tree(src_root)
    if not operations_md.is_file():
        return [
            Finding(RULE_METRICS_DOC, str(operations_md), 0, "OPERATIONS.md not found")
        ]
    registered = extract_registered_metrics(sources)
    documented = parse_metrics_catalogue(operations_md)
    doc = f"{operations_md.parent.name}/{operations_md.name}"
    findings: List[Finding] = []
    if not documented:
        findings.append(
            Finding(
                RULE_METRICS_DOC, doc, 0, "metrics catalogue table not found"
            )
        )
        return findings
    for name, (relpath, lineno) in sorted(registered.items()):
        if name not in documented:
            findings.append(
                Finding(
                    RULE_METRICS_DOC,
                    relpath,
                    lineno,
                    f"metric {name!r} is registered but missing from the"
                    f" OPERATIONS.md catalogue",
                )
            )
    for name, lineno in sorted(documented.items()):
        if name not in registered:
            findings.append(
                Finding(
                    RULE_METRICS_DOC,
                    doc,
                    lineno,
                    f"catalogue documents {name!r} but nothing registers it",
                )
            )
    return findings


def run_all(
    src_root: Path,
    docs_root: Optional[Path],
    sources: Sequence[SourceFile],
) -> List[Finding]:
    """Every contract check; doc-backed ones skip when docs_root is None."""
    findings: List[Finding] = []
    findings.extend(check_failpoint_registry(src_root, sources))
    if docs_root is not None:
        findings.extend(
            check_metrics_catalogue(src_root, docs_root / "OPERATIONS.md", sources)
        )
    return findings
