"""Readers of the tables that cellseq writes for people rather than for a
later stage: the per-length aggregates, the two improvement tables and the
search history. They read through ``_files.read_table``, so the tests can
check what these tables hold and that a damaged one is refused."""
from __future__ import annotations

from cellseq._files import one_of, read_table
from cellseq.evaluation import AGGREGATES_VERSION, IMPROVEMENT_GM_VERSION, IMPROVEMENT_M_VERSION, SCORE_NAMES
from cellseq.hypersearch import HISTORY_VERSION

SCORE = ("score", one_of(*SCORE_NAMES))


def read_aggregates(path) -> dict[tuple[int, str], tuple]:
    """(m, score name) -> (count, mean, q1, median, q3, min, max)."""
    columns = [("m", int), SCORE, ("count", int)]
    columns += [(name, float) for name in ("mean", "q1", "median", "q3", "min", "max")]
    rows = read_table(path, AGGREGATES_VERSION, {}).parse(columns, key=[0, 1])
    return {(m, name): tuple(stats) for m, name, *stats in rows}


def read_improvement_gm(path) -> dict[tuple[int, int], dict[str, float]]:
    """(g, m) -> score name -> mean ARNN/RNN ratio."""
    columns = [("g", int), ("m", int)] + [(name, float) for name in SCORE_NAMES]
    rows = read_table(path, IMPROVEMENT_GM_VERSION, {}).parse(columns, key=[0, 1])
    return {(g, m): dict(zip(SCORE_NAMES, ratios)) for g, m, *ratios in rows}


def read_improvement_m(path) -> dict[int, dict[str, tuple[float, float, float]]]:
    """m -> score name -> (avg, min, max) of its ratios over g."""
    columns = [("m", int), SCORE, ("avg", float), ("min", float), ("max", float)]
    out: dict[int, dict[str, tuple[float, float, float]]] = {}
    for m, name, *stats in read_table(path, IMPROVEMENT_M_VERSION, {}).parse(columns, key=[0, 1]):
        out.setdefault(m, {})[name] = tuple(stats)
    return out


def _pair(kind):
    """A field type for two ``kind`` values joined by a comma."""
    def pair(text: str) -> tuple:
        low, high = text.split(",")
        return kind(low), kind(high)
    pair.__name__ = f"{kind.__name__},{kind.__name__}"
    return pair


def read_history(path) -> tuple[dict[str, object], list[tuple]]:
    """The line 1 fields of a search history, and one row per trial: (trial,
    learning_rate, d_e, d_h, objective, status, wall_time, incumbent)."""
    table = read_table(path, HISTORY_VERSION, {"seed": int, "lr_range": _pair(float), "d_e_range": _pair(int),
                                               "d_h_range": _pair(int)})
    columns = [("trial", int), ("learning_rate", float), ("d_e", int), ("d_h", int), ("objective", float),
               ("status", one_of("ok", "failed")), ("wall_time", float), ("incumbent", one_of("*", ""))]
    return table.fields, table.parse(columns, key=[0])
