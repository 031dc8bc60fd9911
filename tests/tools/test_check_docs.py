"""``tools/check_docs.py``: the real docs pass, and a PROTOCOL.md whose
op or error-code table drifts from ``repro.service.contract`` — or an
OPERATIONS.md whose metrics table drifts from the live registry — fails
with a ``file:line`` message.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS_DIR = str(REPO_ROOT / "tools")
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)

import check_docs  # noqa: E402

PROTOCOL_MD = REPO_ROOT / "docs" / "PROTOCOL.md"
OPERATIONS_MD = REPO_ROOT / "docs" / "OPERATIONS.md"


def test_real_docs_pass(capsys):
    assert check_docs.main([]) == 0
    assert "docs check: OK" in capsys.readouterr().out


def _line_of(text, needle):
    return text[: text.index(needle)].count("\n") + 1


DRIFTS = [
    pytest.param(
        "| `busy` | `E_BUSY` |",
        "| `busy` | `E_UNAVAILABLE` |",
        "| `busy` | `E_UNAVAILABLE` |",
        r"error code 'busy' documented as E_UNAVAILABLE, the contract says E_BUSY",
        id="error-row-swapped",
    ),
    pytest.param(
        "| `read_only` | `E_READ_ONLY` | write sent to a read-only replica server"
        " | route to the writer |\n",
        "",
        "| `internal` | `E_INTERNAL` |",  # a missing row anchors at the table's end
        r"error code 'read_only' \(E_READ_ONLY\) missing from the table",
        id="error-row-removed",
    ),
    pytest.param(
        "| `add` | no | no |",
        "| `add` | yes | no |",
        "| `add` | yes | no |",
        r"op 'add' documented as yes / no, the contract says no / no",
        id="op-flag-flipped",
    ),
]


@pytest.mark.parametrize("old, new, anchor, message", DRIFTS)
def test_drifted_protocol_table_fails_with_file_and_line(
    tmp_path, old, new, anchor, message
):
    text = PROTOCOL_MD.read_text(encoding="utf-8")
    assert text.count(old) == 1
    drifted = text.replace(old, new)
    doc = tmp_path / "PROTOCOL.md"
    doc.write_text(drifted, encoding="utf-8")

    errors = check_docs.check_contract_tables(doc)

    assert len(errors) == 1, errors
    match = re.fullmatch(rf"{re.escape(str(doc))}:(\d+): {message}", errors[0])
    assert match, errors[0]
    assert int(match.group(1)) == _line_of(drifted, anchor)


METRIC_DRIFTS = [
    pytest.param(
        "| `repro_wal_fsyncs_total` | counter |",
        "| `repro_wal_fsyncs_total` | gauge |",
        "| `repro_wal_fsyncs_total` | gauge |",
        r"metric 'repro_wal_fsyncs_total' documented as gauge / —, the contract says"
        r" counter / —",
        id="metric-type-swapped",
    ),
    pytest.param(
        "| `repro_inflight_requests` | gauge | — | request frames being served right now |\n",
        "",
        "| `chaos_failpoint_hits_total` |",  # a missing row anchors at the table's end
        r"metric 'repro_inflight_requests' \(gauge / —\) missing from the table",
        id="metric-row-removed",
    ),
    pytest.param(
        "| `repro_inflight_requests` |",
        "| `repro_inflight_peak` | gauge | — | phantom |\n| `repro_inflight_requests` |",
        "| `repro_inflight_peak` |",
        r"documents unknown metric 'repro_inflight_peak'",
        id="metric-phantom-row",
    ),
]


@pytest.mark.parametrize("old, new, anchor, message", METRIC_DRIFTS)
def test_drifted_metrics_table_fails_with_file_and_line(tmp_path, old, new, anchor, message):
    text = OPERATIONS_MD.read_text(encoding="utf-8")
    assert text.count(old) == 1
    drifted = text.replace(old, new)
    doc = tmp_path / "OPERATIONS.md"
    doc.write_text(drifted, encoding="utf-8")

    errors = check_docs.check_contract_tables(doc)

    assert len(errors) == 1, errors
    match = re.fullmatch(rf"{re.escape(str(doc))}:(\d+): {message}", errors[0])
    assert match, errors[0]
    assert int(match.group(1)) == _line_of(drifted, anchor)
