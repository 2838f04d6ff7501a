"""Output files that land whole or not at all, and the one reader and writer
of cellseq's tab-separated tables. Line 1 of a table holds its format version
and typed ``key=value`` fields, one of which counts its rows, and every line
ends in a newline; so a table cut at a line boundary holds fewer rows than
it says, and one cut anywhere else ends without a newline. Lines split on
``"\\n"`` only and fields on tabs, so a field may hold any other character.
"""
from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

PARSE_CHARS = 1 << 14  # characters of a table split and converted at a time, which bounds the memory a read takes


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open a temporary file next to ``path`` for writing, and rename it over
    ``path`` when the block ends. If the block raises, the temporary file is
    removed, and a file already at ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def one_of(*names: str) -> Callable[[str], str]:
    """A field type that accepts only ``names``."""
    def accept(text: str) -> str:
        if text not in names:
            raise ValueError(text)
        return text
    accept.__name__ = "|".join(names)
    return accept


@dataclass(frozen=True)
class Table:
    """A table file whose header and row count have been checked: its typed
    header fields, its rows (each ending in a newline) and the line each row
    is on."""

    path: str | Path
    fields: dict[str, object]
    body: str
    lines: Sequence[int]

    def error(self, i: int, message: str) -> ValueError:
        return ValueError(f"{self.path}:{self.lines[i]}: {message}")

    def blocks(self, columns: Sequence[tuple[str, Callable]], start: int = 0,
               stop: int | None = None) -> Iterator[list[tuple]]:
        """Rows ``start:stop`` as one typed field per ``(name, type)`` column,
        a block of about ``PARSE_CHARS`` characters at a time."""
        pos, i = 0, 0
        while pos < len(self.body) and (stop is None or i < stop):
            end = self.body.find("\n", min(pos + PARSE_CHARS, len(self.body) - 1))
            piece = self.body[pos:end].split("\n")
            lo, block = max(start, i), piece[max(start - i, 0):None if stop is None else stop - i]
            pos, i = end + 1, i + len(piece)
            if block:
                yield self._typed(columns, lo, block)

    def _typed(self, columns: Sequence[tuple[str, Callable]], lo: int, block: list[str]) -> list[tuple]:
        """The rows of ``block``, the first of which is row ``lo``, typed."""
        width, values = len(columns), []
        if set(tabs := list(map(str.count, block, itertools.repeat("\t")))) - {width - 1}:
            bad = next(j for j, n in enumerate(tabs) if n != width - 1)
            raise self.error(lo + bad, f"expected {width} tab-separated fields, got {tabs[bad] + 1}")
        fields = "\t".join(block).split("\t")
        for c, (name, kind) in enumerate(columns):
            try:
                values.append(fields[c::width] if kind is str else list(map(kind, fields[c::width])))
            except ValueError:
                for j, text in enumerate(fields[c::width]):
                    try:
                        kind(text)
                    except ValueError:
                        raise self.error(lo + j, f"field {name}={text!r} is not {kind.__name__}") from None
        return list(zip(*values))

    def parse(self, columns: Sequence[tuple[str, Callable]], start: int = 0, stop: int | None = None,
              key: Sequence[int] = ()) -> list[tuple]:
        """The rows of ``blocks`` in one list. No two rows may share the values
        of the ``key`` columns."""
        rows = list(itertools.chain.from_iterable(self.blocks(columns, start, stop)))
        keys = list(zip(*(map(itemgetter(c), rows) for c in key)))
        if len(set(keys)) < len(keys):
            first: dict[tuple, int] = {}
            i, j = next((i, j) for i, k in enumerate(keys) if (j := first.setdefault(k, i)) != i)
            named = " and ".join(f"{columns[c][0]} {v!r}" for c, v in zip(key, keys[i]))
            raise self.error(start + i, f"repeated {named}, first on line {self.lines[start + j]}")
        return rows


def read_table(path: str | Path, version: str, fields: Mapping[str, Callable], count: str = "rows", head: int = 0,
               bare: bool = False) -> Table:
    """The table at ``path``. Its line 1 holds ``version`` and the typed
    ``key=value`` ``fields``, of which ``count`` gives the number of rows
    after ``head`` further rows. With ``bare``, a file whose line 1 is not
    ``version`` is read as rows alone: each line stripped, blank lines and
    ``#`` comments skipped, and no count to check."""
    with open(path, newline="\n") as fh:  # a line ends at "\n" only
        text = fh.read()
    first, _, body = text.partition("\n")
    parts, newlines = first.split("\t"), text.count("\n")
    if parts[0] != version and bare:
        kept = [(n, row) for n, row in enumerate(map(str.strip, text.split("\n")), start=1) if row and row[0] != "#"]
        if not kept:
            raise ValueError(f"{path}:1: no rows")
        return Table(path, {}, "".join([row + "\n" for _, row in kept]), [n for n, _ in kept])
    if parts[0] != version:
        raise ValueError(f"{path}:1: unsupported version {parts[0]!r}, expected {version}")
    if not text.endswith("\n"):
        raise ValueError(f"{path}:{newlines + 1}: the last line has no newline; the file was cut short")
    types, raw = {**fields, count: int}, {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"{path}:1: header field {part!r} is not key=value")
        raw[key] = value
    if missing := [key for key in types if key not in raw]:  # unknown keys are ignored
        raise ValueError(f"{path}:1: header has no {missing[0]}= field")
    header = Table(path, {}, "\t".join([raw[key] for key in types]) + "\n", [1])
    values = dict(zip(types, header.parse(list(types.items()))[0]))
    size, expected = newlines - 1, values[count] + head
    if size != expected:  # name the last line of a short table, the first line too many of a long one
        raise ValueError(f"{path}:{min(newlines, max(expected, 0) + 2)}: "
                         f"line 1 counts {expected} rows after it, the file holds {size}")
    return Table(path, values, body, range(2, newlines + 1))


def write_table(path: str | Path, version: str, fields: Mapping[str, object], rows: Iterable[str]) -> None:
    """Write ``version`` and the ``key=value`` fields on line 1, then each of
    ``rows`` (which may span lines), every line ending in a newline."""
    with atomic_open(path) as fh:
        fh.write("\t".join([version, *(f"{key}={value}" for key, value in fields.items())]) + "\n")
        fh.writelines(row + "\n" for row in rows)
