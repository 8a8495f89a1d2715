"""Tests for size accounting."""

from repro.utils.memory import (
    CONTAINER_BYTES,
    ENTRY_FULL_BYTES,
    ENTRY_ID_BYTES,
    ENTRY_ID_START_BYTES,
    SizeModel,
    deep_getsizeof,
    mib,
)


class TestSizeModel:
    def test_accumulation(self):
        model = (
            SizeModel()
            .add_full_entries(10)
            .add_id_start_entries(5)
            .add_id_entries(3)
            .add_containers(2)
        )
        expected = (
            10 * ENTRY_FULL_BYTES
            + 5 * ENTRY_ID_START_BYTES
            + 3 * ENTRY_ID_BYTES
            + 2 * CONTAINER_BYTES
        )
        assert model.bytes_total == expected

    def test_chaining_returns_self(self):
        model = SizeModel()
        assert model.add_bytes(7) is model
        assert model.bytes_total == 7

    def test_endpoint_entries(self):
        assert SizeModel().add_endpoint_entries(2).bytes_total == 12

    def test_entry_sizes_ordering(self):
        # The whole point: id-only < id+endpoint < full entry.
        assert ENTRY_ID_BYTES < ENTRY_ID_START_BYTES < ENTRY_FULL_BYTES


class TestDeepGetsizeof:
    def test_counts_nested_containers(self):
        flat = deep_getsizeof([1, 2, 3])
        nested = deep_getsizeof([[1, 2, 3], [4, 5, 6]])
        assert nested > flat

    def test_shared_objects_counted_once(self):
        shared = [1] * 100
        assert deep_getsizeof([shared, shared]) < 2 * deep_getsizeof([shared])

    def test_dict_keys_and_values(self):
        assert deep_getsizeof({"key": [1, 2, 3]}) > deep_getsizeof({})

    def test_slots_objects(self):
        class Slotted:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = list(range(50))

        assert deep_getsizeof(Slotted()) > deep_getsizeof(list(range(50)))


def test_mib():
    assert mib(1024 * 1024) == 1.0
    assert mib(0) == 0.0
