"""Tests for size accounting."""

from repro.utils.memory import ENTRY_FULL_BYTES, ENTRY_ID_BYTES, ENTRY_ID_START_BYTES


class TestSizeModel:
    """The storage model's cost constants."""

    def test_entry_sizes_ordering(self):
        # The whole point: id-only < id+endpoint < full entry.
        assert ENTRY_ID_BYTES < ENTRY_ID_START_BYTES < ENTRY_FULL_BYTES
