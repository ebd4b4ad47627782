"""Tests for the argument-validation helpers."""

import math

import pytest

from repro.utils.validation import check_non_negative, check_positive


@pytest.mark.parametrize("check", [check_positive, check_non_negative])
@pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
def test_nan_and_negative_values_are_rejected(check, value):
    with pytest.raises(ValueError, match=f"x must be .*, got {value!r}"):
        check("x", value)


@pytest.mark.parametrize("check, value", [
    (check_positive, 1e-12), (check_non_negative, 0.0),
    (check_non_negative, math.inf),
])
def test_accepted_values_are_returned(check, value):
    assert check("x", value) == value
