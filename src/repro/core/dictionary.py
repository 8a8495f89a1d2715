"""The global element dictionary ``D`` with document frequencies.

Every index in the paper orders query elements by their frequency in the
collection, in *increasing* order, so that the first (least frequent) element
produces the smallest initial candidate set (Algorithm 1, line 2).  The
dictionary tracks, for each element, the number of objects whose description
contains it, and provides deterministic frequency-based ordering.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.errors import ReproError
from repro.core.model import Element


class Dictionary:
    """Element → document-frequency map with frequency-ordered access.

    Frequencies count *objects containing the element* (document frequency),
    matching the paper's "element frequency" (Table 3, "Avg element
    frequency").  The structure is updatable: insertions and logical deletions
    adjust counts so composite indexes can keep their query-element ordering
    correct across updates.
    """

    __slots__ = ("_freq",)

    def __init__(self) -> None:
        self._freq: Dict[Element, int] = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def from_descriptions(cls, descriptions: Iterable[Iterable[Element]]) -> "Dictionary":
        """Build from an iterable of object descriptions."""
        dictionary = cls()
        for description in descriptions:
            dictionary.add_description(description)
        return dictionary

    @classmethod
    def from_frequencies(cls, pairs: Iterable[Tuple[Element, int]]) -> "Dictionary":
        """Build from ``(element, frequency)`` pairs, in their order (a bulk
        load counts every element at once)."""
        dictionary = cls()
        dictionary._freq = dict(pairs)
        return dictionary

    def add_description(self, description: Iterable[Element]) -> None:
        """Register one object's description (each element counted once).

        A set is read in its own order, so the dictionary meets new
        elements in the order the indexes' element maps do."""
        freq = self._freq
        if not isinstance(description, (set, frozenset)):
            description = set(description)
        for element in description:
            freq[element] = freq.get(element, 0) + 1

    def remove_description(self, description: Iterable[Element]) -> None:
        """Unregister one object's description (for logical deletions)."""
        freq = self._freq
        for element in set(description):
            count = freq.get(element, 0)
            if count <= 0:
                raise ReproError(f"element {element!r} not present in dictionary")
            if count == 1:
                del freq[element]
            else:
                freq[element] = count - 1

    # ------------------------------------------------------------------ reads
    def frequency(self, element: Element) -> int:
        """Document frequency of ``element`` (0 when absent)."""
        return self._freq.get(element, 0)

    def __contains__(self, element: Element) -> bool:
        return element in self._freq

    def __len__(self) -> int:
        return len(self._freq)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._freq)

    def elements(self) -> List[Element]:
        """All elements (unspecified order)."""
        return list(self._freq)

    def items(self) -> Iterator[Tuple[Element, int]]:
        """(element, frequency) pairs (unspecified order)."""
        return iter(self._freq.items())

    # --------------------------------------------------------------- ordering
    def order_by_frequency(self, elements: Iterable[Element]) -> List[Element]:
        """Sort elements by increasing frequency (paper's query ordering).

        Ties break on ``repr`` of the element so the order is deterministic
        regardless of hash randomisation.  Elements unknown to the dictionary
        sort first (frequency 0) — a query containing them has an empty
        answer, and probing their empty postings list first is exactly the
        cheap exit the frequency ordering is designed to give.
        """
        return sorted(elements, key=lambda e: (self._freq.get(e, 0), repr(e)))

    def least_frequent(self, elements: Iterable[Element]) -> Element:
        """The least frequent of ``elements`` (deterministic tie-break)."""
        ordered = self.order_by_frequency(elements)
        if not ordered:
            raise ReproError("least_frequent called with no elements")
        return ordered[0]

    # ------------------------------------------------------------------ stats
    def max_frequency(self) -> int:
        """Largest document frequency (0 for an empty dictionary)."""
        return max(self._freq.values(), default=0)

    def min_frequency(self) -> int:
        """Smallest document frequency (0 for an empty dictionary)."""
        return min(self._freq.values(), default=0)

    def mean_frequency(self) -> float:
        """Average document frequency (0.0 for an empty dictionary)."""
        if not self._freq:
            return 0.0
        return sum(self._freq.values()) / len(self._freq)

    def frequency_histogram(self, bin_edges: List[int]) -> List[int]:
        """Counts of elements whose frequency falls in consecutive bins.

        ``bin_edges = [e0, e1, ..., ek]`` produces ``k`` counts for the
        half-open bins ``[e0, e1), [e1, e2), ...`` — used by the Figure 7
        element-frequency distribution plot.
        """
        counts = [0] * (len(bin_edges) - 1)
        for freq in self._freq.values():
            for i in range(len(bin_edges) - 1):
                if bin_edges[i] <= freq < bin_edges[i + 1]:
                    counts[i] += 1
                    break
        return counts
