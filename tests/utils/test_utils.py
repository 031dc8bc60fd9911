"""Unit tests for the utility helpers (timing, validation, rng, logging)."""

import logging
import time

import numpy as np
import pytest

from repro.utils.log import enable_verbose, get_logger
from repro.utils.rng import make_rng
from repro.utils.timing import StageTimes
from repro.utils.validation import (
    ValidationError,
    check_array_int,
    check_positive_int,
    check_s_value,
)
from repro.utils.validation import check_s_values


class TestStageTimes:
    def test_accumulation(self):
        times = StageTimes()
        times.add("a", 1.0)
        times.add("a", 0.5)
        times.add("b", 2.0)
        assert times.get("a") == pytest.approx(1.5)
        assert times.total == pytest.approx(3.5)
        assert times.get("missing", -1.0) == -1.0

    def test_stage_context_manager(self):
        times = StageTimes()
        with times.stage("work"):
            time.sleep(0.001)
        assert times.get("work") >= 0.001

    def test_explicit_total_overrides_sum(self):
        times = StageTimes()
        times.add("a", 1.0)
        times.add("total", 9.0)
        assert times.total == 9.0

    def test_merge(self):
        a = StageTimes({"x": 1.0})
        b = StageTimes({"x": 2.0, "y": 3.0})
        a.merge(b)
        assert a.get("x") == 3.0 and a.get("y") == 3.0

    def test_as_dict_copies(self):
        times = StageTimes({"x": 1.0})
        d = times.as_dict()
        d["x"] = 99.0
        assert times.get("x") == 1.0


class TestValidation:
    def test_check_positive_int(self):
        assert check_positive_int(5, "n") == 5
        assert check_positive_int(np.int64(2), "n") == 2
        with pytest.raises(ValidationError):
            check_positive_int(0, "n")
        with pytest.raises(ValidationError):
            check_positive_int(True, "n")
        with pytest.raises(ValidationError):
            check_positive_int(2.5, "n")
        assert check_positive_int(0, "n", minimum=0) == 0

    def test_check_s_value(self):
        assert check_s_value(3) == 3
        with pytest.raises(ValidationError):
            check_s_value(0)
        with pytest.raises(ValidationError):
            check_s_value("two")

    def test_check_s_values(self):
        assert check_s_values([3, 1, 2]) == [1, 2, 3]
        with pytest.raises(ValidationError):
            check_s_values([])

    def test_check_array_int(self):
        out = check_array_int([1, 2, 3], "x")
        assert out.dtype == np.int64
        out = check_array_int(np.array([1.0, 2.0]), "x")
        assert out.tolist() == [1, 2]
        with pytest.raises(ValidationError):
            check_array_int(np.array([1.5]), "x")
        with pytest.raises(ValidationError):
            check_array_int(np.zeros((2, 2)), "x")


class TestRng:
    def test_seed_reproducibility(self):
        assert (
            make_rng(3).integers(0, 100, 5).tolist()
            == make_rng(3).integers(0, 100, 5).tolist()
        )

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core").name == "repro.core"

    def test_enable_verbose_idempotent(self):
        logger = enable_verbose(logging.DEBUG)
        handlers_before = len(logger.handlers)
        enable_verbose(logging.DEBUG)
        assert len(logger.handlers) == handlers_before
