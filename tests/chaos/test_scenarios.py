"""The chaos scenario registry and its axis artefacts.

The scenarios themselves run real subprocesses and are exercised by the
tier-2 ``repro chaos --quick`` job; crash recovery at every failpoint is
the in-process state machine in ``test_crash_model.py``.
"""

import json

import pytest

from repro.chaos.scenarios import (
    SCENARIOS,
    ScenarioResult,
    UnknownScenarioError,
    run_scenarios,
    write_axes,
)


class TestRegistry:
    def test_the_advertised_scenarios_exist(self):
        assert set(SCENARIOS) == {"partition_replica", "restart_everything"}

    def test_unknown_scenario_is_rejected(self):
        ran = []
        with pytest.raises(UnknownScenarioError, match="typo.*partition_replica"):
            run_scenarios(["restart_everything", "typo"], quick=True, emit=ran.append)
        assert ran == []


class TestAxisArtifacts:
    def _result(self, name, ok=True):
        result = ScenarioResult(name=name)
        if not ok:
            result.failures.append("durability: pretend loss")
        result.correctness = {"divergences": 0, "pass": True}
        result.durability = {"acked_lost": 0 if ok else 1, "pass": ok}
        result.freshness = {"time_to_ready_s": 1.0, "pass": True}
        return result

    def test_artifacts_merge_across_runs(self, tmp_path):
        write_axes([self._result("partition_replica")], str(tmp_path))
        write_axes([self._result("restart_everything")], str(tmp_path))
        data = json.loads((tmp_path / "AXES_durability.json").read_text())
        assert set(data["scenarios"]) == {"partition_replica", "restart_everything"}
        assert data["axis"] == "durability"
        assert data["pass"] is True

    def test_rerunning_a_scenario_replaces_its_entry(self, tmp_path):
        write_axes([self._result("partition_replica", ok=False)], str(tmp_path))
        data = json.loads((tmp_path / "AXES_durability.json").read_text())
        assert data["pass"] is False
        write_axes([self._result("partition_replica", ok=True)], str(tmp_path))
        data = json.loads((tmp_path / "AXES_durability.json").read_text())
        assert data["pass"] is True

    def test_correctness_entries_carry_their_failures(self, tmp_path):
        result = self._result("partition_replica")
        result.failures.append("observability[x]: gauge never rose")
        result.correctness = {"divergences": 0, "pass": False}
        write_axes([result], str(tmp_path))
        data = json.loads((tmp_path / "AXES_correctness.json").read_text())
        entry = data["scenarios"]["partition_replica"]
        assert entry["failures"] == ["observability[x]: gauge never rose"]
        assert data["pass"] is False


    def test_entries_of_deleted_scenarios_are_dropped(self, tmp_path):
        """A reused results directory must not keep reporting a scenario
        that no longer exists (here: a failing one, so the axis would
        fail forever)."""
        (tmp_path / "AXES_durability.json").write_text(json.dumps({
            "axis": "durability",
            "pass": False,
            "scenarios": {"retired_scenario": {"acked_lost": 1, "pass": False}},
        }))
        write_axes([self._result("restart_everything")], str(tmp_path))
        data = json.loads((tmp_path / "AXES_durability.json").read_text())
        assert set(data["scenarios"]) == {"restart_everything"}
        assert data["pass"] is True
