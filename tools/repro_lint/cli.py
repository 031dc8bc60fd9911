"""``repro-lint`` command line: run the static rules, exit non-zero on findings.

Usage::

    python tools/repro-lint                    # lint src/repro
    python tools/repro-lint --rules lock-order-cycle,ack-before-fsync
    python tools/repro-lint --src-root tools/repro_lint/fixtures/lock_cycle \
        --rules lock-order-cycle               # fixture self-test form

Rules anchor findings at ``path:line`` and honour ``# repro-lint:
allow[rule-id]`` pragmas on the anchored line (see ``model.py``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro_lint import invariants, lockgraph
from repro_lint.model import Finding, drop_waived, load_tree

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Only these subtrees own locks the discipline rules reason about; a
#: fixture tree (no such subtree) is analyzed whole.
LOCK_SCOPE = ("service/", "store/", "obs/", "engine/", "chaos/")

RULES = (
    lockgraph.RULE_CYCLE,
    lockgraph.RULE_BLOCKING,
    invariants.RULE_WALLCLOCK,
    invariants.RULE_SWALLOW,
    invariants.RULE_ACK,
)

_LOCK_RULES = {lockgraph.RULE_CYCLE, lockgraph.RULE_BLOCKING}
_INVARIANT_RULES = {
    invariants.RULE_WALLCLOCK,
    invariants.RULE_SWALLOW,
    invariants.RULE_ACK,
}


def lint(src_root: Path, rules: Sequence[str]) -> List[Finding]:
    """Run ``rules`` over ``src_root``; returns surviving findings."""
    selected = set(rules)
    sources = load_tree(src_root)
    findings: List[Finding] = []

    if selected & _LOCK_RULES:
        scoped = [
            source
            for source in sources
            if source.relpath.replace("\\", "/").startswith(LOCK_SCOPE)
        ] or sources
        findings.extend(lockgraph.analyze(scoped))
    if selected & _INVARIANT_RULES:
        findings.extend(invariants.run_all(sources))

    findings = [finding for finding in findings if finding.rule in selected]
    return drop_waived(findings, sources)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="repo-specific concurrency & durability lint",
    )
    parser.add_argument(
        "--src-root",
        type=Path,
        default=REPO_ROOT / "src" / "repro",
        help="tree to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        default=",".join(RULES),
        help="comma-separated rule ids (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
    unknown = set(rules) - set(RULES)
    if unknown:
        print(f"unknown rule(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    if not args.src_root.exists():
        print(f"no such source root: {args.src_root}", file=sys.stderr)
        return 2

    findings = lint(args.src_root, rules)
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding.render())
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"repro-lint: clean ({len(rules)} rule(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
