"""Between ``models.sample_forks``'s leaves and per-fork rows of sampled ids.

``sample_forks`` returns (ids, fork, leaf): each leaf's sampled ids padded
with -1, each leaf's fork, and each row's leaf, rows in fork then seed
order. Tests compare rows, one tuple of ids per candidate.
"""
import numpy as np


def rows_of(leaves, n_forks):
    """Per fork, per row in seed order, the tuple of its leaf's ids."""
    ids, fork, leaf = leaves
    assert (np.diff(fork[leaf]) >= 0).all(), "rows are not in fork order"
    rows = [[] for _ in range(n_forks)]
    for i in leaf.tolist():
        rows[fork[i]].append(tuple(x for x in ids[i].tolist() if x >= 0))
    return rows


def leaves_of(sampled):
    """The leaves of per-fork rows of ids: one leaf per distinct row of a fork."""
    index = {}
    leaf = [index.setdefault((f, tuple(ids)), len(index)) for f, rows in enumerate(sampled) for ids in rows]
    ids = np.full((len(index), max(len(row) for _, row in index)), -1, dtype=np.intp)
    for (_, row), i in index.items():
        ids[i, : len(row)] = row
    return ids, np.array([f for f, _ in index], dtype=np.intp), np.array(leaf, dtype=np.intp)
