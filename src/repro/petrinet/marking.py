"""Markings: token distributions over the places of a Petri net.

A marking is an n-vector assigning a non-negative number of tokens to
every place (Sgroi et al. 1999, Section 2).  The class below is an
immutable mapping-like value object; firing a transition produces a new
marking rather than mutating the old one, which makes markings usable as
dictionary keys in reachability graphs and as recorded states in
simulation traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from .exceptions import InvalidMarkingError


class Marking(Mapping[str, int]):
    """An immutable assignment of token counts to place names.

    Places with zero tokens may be omitted; lookups of unknown places
    return 0, mirroring the mathematical convention that the marking
    vector is defined over all places.
    """

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int] | Iterable[Tuple[str, int]] = ()) -> None:
        items = dict(tokens)
        for place, count in items.items():
            if count < 0:
                raise InvalidMarkingError(
                    f"place {place!r} has negative token count {count}"
                )
        # normalize: drop zero entries so equal markings hash equally
        self._tokens: Dict[str, int] = {p: c for p, c in items.items() if c}
        self._hash: int | None = None

    @classmethod
    def _from_clean(cls, tokens: Dict[str, int]) -> "Marking":
        """Internal fast constructor for already-normalized token dicts.

        ``tokens`` must contain no zero and no negative counts and must
        not be mutated by the caller afterwards.  Used by the compiled
        engine when decompiling marking tuples in bulk, where the
        validation pass of ``__init__`` would dominate.
        """
        marking = object.__new__(cls)
        marking._tokens = tokens
        marking._hash = None
        return marking

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, place: str) -> int:
        return self._tokens.get(place, 0)

    def get(self, place: str, default: int = 0) -> int:  # type: ignore[override]
        return self._tokens.get(place, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, place: object) -> bool:
        return place in self._tokens

    # -- value-object behaviour -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._tokens == other._tokens
        if isinstance(other, Mapping):
            return self._tokens == {p: c for p, c in other.items() if c}
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._tokens.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {c}" for p, c in sorted(self._tokens.items()))
        return f"Marking({{{inner}}})"

    # -- arithmetic helpers -------------------------------------------------
    @property
    def tokens(self) -> Dict[str, int]:
        """A plain dict copy of the non-zero token counts."""
        return dict(self._tokens)

    def total(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._tokens.values())

    def add(self, place: str, count: int = 1) -> "Marking":
        """Return a new marking with ``count`` extra tokens in ``place``."""
        tokens = dict(self._tokens)
        tokens[place] = tokens.get(place, 0) + count
        return Marking(tokens)

    def remove(self, place: str, count: int = 1) -> "Marking":
        """Return a new marking with ``count`` tokens removed from ``place``."""
        tokens = dict(self._tokens)
        tokens[place] = tokens.get(place, 0) - count
        return Marking(tokens)

    def covers(self, other: "Marking") -> bool:
        """True if this marking has at least as many tokens everywhere."""
        for place, count in other._tokens.items():
            if self._tokens.get(place, 0) < count:
                return False
        return True

