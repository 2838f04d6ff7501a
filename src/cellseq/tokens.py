"""Token vocabulary shared by the discretizer, the models, and the scorers.

A token is either a 1-based cell index (int) or one of the two virtual
markers ``#start`` / ``#end`` that wrap every cell sequence.
"""
from __future__ import annotations

from typing import Iterable, Sequence, Union

START = "#start"
END = "#end"

Token = Union[int, str]


def is_virtual(token: Token) -> bool:
    return token == START or token == END


def strip_virtual(tokens: Iterable[Token]) -> list[int]:
    """Drop the virtual markers, keeping only real cell indices."""
    return [t for t in tokens if not is_virtual(t)]


class Vocab:
    """Token table over the active cells plus the two virtual markers.

    Ids are dense: 0 = #start, 1 = #end, then cells in ascending index order.
    """

    def __init__(self, cells: Iterable[int]):
        unique = sorted(set(int(c) for c in cells))
        if any(c < 1 for c in unique):
            raise ValueError("cell indices must be >= 1")
        self.tokens: tuple[Token, ...] = (START, END, *unique)
        self._index: dict[Token, int] = {t: i for i, t in enumerate(self.tokens)}

    @property
    def end_id(self) -> int:
        return 1

    @property
    def cells(self) -> tuple[int, ...]:
        return self.tokens[2:]  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: Token) -> bool:
        return token in self._index

    def encode(self, tokens: Sequence[Token]) -> list[int]:
        try:
            return [self._index[t] for t in tokens]
        except KeyError as exc:
            raise ValueError(f"unknown token: {exc.args[0]!r}") from None

    def decode(self, ids: Sequence[int]) -> list[Token]:
        return [self.tokens[i] for i in ids]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocab({len(self.tokens)} tokens, {len(self.cells)} cells)"
