"""The linter's own regression suite: seeded fixtures must fire, clean
fixtures and today's ``src/`` must not, and the runtime lock tracker
must detect executed inversions without breaking stdlib lock users.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS_DIR = str(REPO_ROOT / "tools")
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)

from repro_lint import cli, lockcheck  # noqa: E402
from repro_lint.model import load_source, parse_waivers  # noqa: E402

FIXTURES = REPO_ROOT / "tools" / "repro_lint" / "fixtures"


def run_lint(src_root, rules):
    return cli.lint(Path(src_root), rules)


# --------------------------------------------------------------------- #
# Seeded fixtures: every rule fires, with the expected anchors
# --------------------------------------------------------------------- #
SEEDED = [
    pytest.param(
        "lock_cycle",
        ["lock-order-cycle"],
        [("transfer.py", None)],
        id="lock-order-cycle",
    ),
    pytest.param(
        "blocking_under_lock",
        ["blocking-under-lock"],
        [("flusher.py", 19), ("flusher.py", 23)],
        id="blocking-under-lock",
    ),
    pytest.param(
        "wall_clock",
        ["wall-clock-arith"],
        [("lag.py", 8), ("lag.py", 12)],
        id="wall-clock-arith",
    ),
    pytest.param(
        "swallowed",
        ["swallowed-exception"],
        [("service/transport/conn.py", 7)],
        id="swallowed-exception",
    ),
    pytest.param(
        "ack_order",
        ["ack-before-fsync"],
        [("service/admission.py", 13)],
        id="ack-before-fsync",
    ),
]


@pytest.mark.parametrize("tree, rules, expected", SEEDED)
def test_seeded_fixture_fires(tree, rules, expected):
    findings = run_lint(FIXTURES / tree, rules)
    got = sorted((f.path, f.line) for f in findings)
    want = sorted(expected, key=lambda e: (e[0], -1 if e[1] is None else e[1]))
    assert len(got) == len(want), findings
    for (path, line), (want_path, want_line) in zip(got, want):
        assert path == want_path
        if want_line is not None:
            assert line == want_line
    assert {f.rule for f in findings} == set(rules)


@pytest.mark.parametrize("tree, rules, expected", SEEDED)
def test_seeded_fixture_cli_exit_code(tree, rules, expected):
    argv = ["--src-root", str(FIXTURES / tree), "--rules", ",".join(rules)]
    assert cli.main(argv) == 1


# --------------------------------------------------------------------- #
# No false positives
# --------------------------------------------------------------------- #
NON_CONTRACT_RULES = [
    "lock-order-cycle",
    "blocking-under-lock",
    "wall-clock-arith",
    "swallowed-exception",
    "ack-before-fsync",
]


def test_clean_fixture_has_no_findings():
    findings = run_lint(FIXTURES / "clean", NON_CONTRACT_RULES)
    assert findings == []


def test_whole_src_tree_is_clean():
    """The gate CI enforces: all rules over src/, exit 0."""
    assert cli.main([]) == 0


# --------------------------------------------------------------------- #
# Waiver pragmas
# --------------------------------------------------------------------- #
def test_waiver_pragma_suppresses_on_anchor_line(tmp_path):
    (tmp_path / "lag.py").write_text(
        "import time\n"
        "\n"
        "def lag(last):\n"
        "    return time.time() - last  # repro-lint: allow[wall-clock-arith]\n"
    )
    assert run_lint(tmp_path, ["wall-clock-arith"]) == []


def test_waiver_pragma_is_rule_specific(tmp_path):
    (tmp_path / "lag.py").write_text(
        "import time\n"
        "\n"
        "def lag(last):\n"
        "    return time.time() - last  # repro-lint: allow[swallowed-exception]\n"
    )
    findings = run_lint(tmp_path, ["wall-clock-arith"])
    assert [f.rule for f in findings] == ["wall-clock-arith"]


def test_parse_waivers_multiple_rules():
    waivers = parse_waivers(
        "x = 1  # repro-lint: allow[rule-a, rule-b]\n"
    )
    assert waivers == {1: {"rule-a", "rule-b"}}


def test_syntax_error_file_is_skipped(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert load_source(bad, tmp_path) is None
    assert run_lint(tmp_path, NON_CONTRACT_RULES) == []


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "rule",
    [
        "no-such-rule",
        "op-contract",
        "error-code-contract",
        "failpoint-contract",
        "metrics-doc-contract",
    ],
)
def test_cli_rejects_unknown_rule(rule):
    """The four retired contract rules are gone, not silently accepted."""
    assert cli.main(["--rules", rule]) == 2


def test_cli_rejects_missing_src_root(tmp_path):
    assert cli.main(["--src-root", str(tmp_path / "nope")]) == 2


def test_cli_list_rules(capsys):
    assert cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out.split()
    assert set(NON_CONTRACT_RULES) <= set(out)
    assert len(out) == 5


# --------------------------------------------------------------------- #
# Runtime lock-order detector
# --------------------------------------------------------------------- #
@pytest.fixture
def tracker():
    """A freshly-installed lockcheck, restoring prior state afterwards.

    Under ``REPRO_LOCKCHECK=1`` the session-wide tracker is already
    active; the reset on teardown keeps this test's *deliberate*
    inversions out of the session-end ``assert_clean`` graph.
    """
    was_active = lockcheck.is_active()
    lockcheck.uninstall()
    lockcheck.reset()
    lockcheck.install(hold_threshold_ms=200.0)
    yield lockcheck
    lockcheck.uninstall()
    lockcheck.reset()
    if was_active:
        lockcheck.install()


def _run_threads(*targets):
    for target in targets:
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()


def test_lockcheck_detects_executed_inversion(tracker):
    a = threading.Lock()
    b = threading.Lock()

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    _run_threads(forward, backward)
    assert tracker.find_cycles()
    with pytest.raises(AssertionError):
        tracker.assert_clean()


def test_lockcheck_consistent_order_is_clean(tracker):
    a = threading.Lock()
    b = threading.Lock()

    def nested():
        with a:
            with b:
                pass

    _run_threads(nested, nested)
    assert tracker.find_cycles() == []
    tracker.assert_clean()


def test_lockcheck_same_creation_site_pair_still_cycles(tracker):
    def make():
        return threading.Lock()

    a, b = make(), make()

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    _run_threads(forward, backward)
    assert tracker.find_cycles()


def test_lockcheck_benign_same_site_nesting_is_clean(tracker):
    def make():
        return threading.Lock()

    parent, child = make(), make()
    with parent:
        with child:
            pass
    assert tracker.find_cycles() == []


def test_lockcheck_rlock_reentrancy_not_an_edge(tracker):
    lock = threading.RLock()
    other = threading.Lock()
    with lock:
        with lock:  # re-entrant: must not create a self-edge
            pass
    with other:
        pass
    tracker.assert_clean()


def test_lockcheck_condition_wait_releases_held_stack(tracker):
    cond = threading.Condition()
    ready = []

    def waiter():
        with cond:
            while not ready:
                cond.wait(timeout=5)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    with cond:
        ready.append(1)
        cond.notify()
    thread.join()
    # A lock taken after the wait must not look nested under the
    # condition's lock from the waiter's perspective.
    tracker.assert_clean()


def test_lockcheck_hold_threshold(tracker):
    slow = threading.Lock()
    with slow:
        time.sleep(0.3)
    holds = tracker.hold_violations()
    assert holds and holds[0][1] >= 0.2
    with pytest.raises(AssertionError):
        tracker.assert_clean()


def test_lockcheck_executor_still_works(tracker):
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as executor:
        assert sorted(executor.map(lambda x: x * x, [1, 2, 3])) == [1, 4, 9]
    tracker.assert_clean()


def test_lockcheck_uninstall_restores_factories(tracker):
    lockcheck.uninstall()
    assert threading.Lock is lockcheck._original_lock
    assert threading.RLock is lockcheck._original_rlock
    lockcheck.install(hold_threshold_ms=200.0)  # fixture teardown expects it
