"""Tests for the network-delay model."""

import pytest

from repro.core import ConfigurationError, NetworkModel
from repro.core.network import DEFAULT_NETWORK_DELAY_S


def test_default_delay_is_half_millisecond():
    assert DEFAULT_NETWORK_DELAY_S == 0.0005
    assert NetworkModel().sample() == 0.0005


def test_constant_delay_no_jitter():
    model = NetworkModel(0.002)
    assert all(model.sample() == 0.002 for _ in range(5))


def test_negative_delay_rejected():
    with pytest.raises(ConfigurationError):
        NetworkModel(-1.0)


def test_zero_delay_allowed():
    assert NetworkModel(0.0).sample() == 0.0
