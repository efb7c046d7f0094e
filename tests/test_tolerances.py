"""The QSPECTRA_TOL multiplier: a positive finite number or an error."""

import pytest

from qspectra import tolerances


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "inf", "-inf", "1e400"])
def test_scale_refuses_a_value_that_is_not_positive_and_finite(raw, monkeypatch):
    monkeypatch.setenv("QSPECTRA_TOL", raw)
    with pytest.raises(ValueError, match=r"^QSPECTRA_TOL must be "):
        tolerances.scale()


@pytest.mark.parametrize("raw, value", [("1", 1.0), ("1e-300", 1e-300),
                                        ("1e-320", 1e-320), ("1e9", 1e9)])
def test_scale_accepts_a_positive_finite_value(raw, value, monkeypatch):
    monkeypatch.setenv("QSPECTRA_TOL", raw)
    assert tolerances.scale() == value
