"""Tests for repro.utils.validation."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.utils.validation import (
    ensure_in_range,
    ensure_non_empty,
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_probability,
    ensure_unique,
)


def test_ensure_positive_int_accepts_and_rejects():
    assert ensure_positive_int(3, "x") == 3
    with pytest.raises(InvalidParameterError):
        ensure_positive_int(0, "x")
    with pytest.raises(InvalidParameterError):
        ensure_positive_int(True, "x")
    with pytest.raises(InvalidParameterError):
        ensure_positive_int(1.5, "x")


def test_ensure_non_negative_int():
    assert ensure_non_negative_int(0, "x") == 0
    with pytest.raises(InvalidParameterError):
        ensure_non_negative_int(-1, "x")


def test_ensure_probability_bounds():
    assert ensure_probability(0.0, "p") == 0.0
    assert ensure_probability(1.0, "p") == 1.0
    with pytest.raises(InvalidParameterError):
        ensure_probability(1.2, "p")
    with pytest.raises(InvalidParameterError):
        ensure_probability("not-a-number", "p")


def test_ensure_in_range_inclusive_and_exclusive():
    assert ensure_in_range(0.5, "x", 0.0, 1.0) == 0.5
    with pytest.raises(InvalidParameterError):
        ensure_in_range(0.0, "x", 0.0, 1.0, inclusive=False)
    with pytest.raises(InvalidParameterError):
        ensure_in_range(2.0, "x", 0.0, 1.0)


def test_ensure_non_empty_and_unique():
    assert ensure_non_empty([1], "items") == [1]
    with pytest.raises(InvalidParameterError):
        ensure_non_empty([], "items")
    ensure_unique([1, 2, 3], "items")
    with pytest.raises(InvalidParameterError):
        ensure_unique([1, 1], "items")
