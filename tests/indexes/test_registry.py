"""Tests for the index registry/factory."""

import pytest

from repro.core.errors import ConfigurationError
from repro.indexes.base import TemporalIRIndex
from repro.indexes.brute import BruteForce
from repro.indexes.registry import (
    COMPARISON_METHODS,
    PAPER_METHODS,
    available_indexes,
    build_index,
    index_class,
    register_index,
    unregister_index,
)


def test_all_paper_methods_registered():
    assert set(PAPER_METHODS) <= set(available_indexes())
    assert set(COMPARISON_METHODS) <= set(PAPER_METHODS)


def test_index_class_resolution():
    assert index_class("brute") is BruteForce


def test_unknown_key_raises():
    with pytest.raises(ConfigurationError):
        index_class("nope")


def test_build_index(running_example, example_query):
    index = build_index("tif", running_example)
    assert index.query(example_query).tolist() == [2, 4, 7]


def test_build_index_with_params(running_example):
    index = build_index("tif-slicing", running_example, n_slices=7)
    assert index.stats()["n_slices"] == 7


def test_register_custom_index(running_example):
    class Custom(BruteForce):
        name = "custom"

    register_index("custom-test-key", Custom)
    try:
        index = build_index("custom-test-key", running_example)
        assert isinstance(index, TemporalIRIndex)
    finally:
        unregister_index("custom-test-key")


def test_register_duplicate_rejected():
    with pytest.raises(ConfigurationError):
        register_index("brute", BruteForce)


def test_register_override_replaces_and_is_rerunnable():
    """Regression: re-registering with override=True must not raise, so a
    test module can install throwaway classes on every run."""

    class CustomA(BruteForce):
        name = "custom-a"

    class CustomB(BruteForce):
        name = "custom-b"

    try:
        for cls in (CustomA, CustomB, CustomA):  # simulate repeated runs
            register_index("custom-override-key", cls, override=True)
            assert index_class("custom-override-key") is cls
    finally:
        unregister_index("custom-override-key")
    assert "custom-override-key" not in available_indexes()


def test_override_does_not_mask_plain_duplicate_error():
    register_index("custom-once-key", BruteForce)
    try:
        with pytest.raises(ConfigurationError):
            register_index("custom-once-key", BruteForce)
    finally:
        unregister_index("custom-once-key")


def test_unregister_unknown_key_raises():
    with pytest.raises(ConfigurationError):
        unregister_index("never-registered")


def test_unregister_returns_the_class():
    register_index("custom-return-key", BruteForce)
    assert unregister_index("custom-return-key") is BruteForce
