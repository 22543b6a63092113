"""One-to-one matching: the greedy rule that decode and evaluation share, and
the exact assignment (Kuhn 1955; Munkres 1957) behind label agreement."""
from __future__ import annotations

import numpy as np


def greedy_pairs(cost: np.ndarray, allowed: np.ndarray) -> dict[int, int]:
    """Greedy one-to-one {row: col} matching: allowed pairs in ascending cost,
    ties to the lower row then the lower column, each kept unless its row or
    column is already taken.  The dict holds the pairs in the order taken."""
    cost = np.asarray(cost, dtype=np.float64)
    flat = np.asarray(allowed).ravel().nonzero()[0]
    pairs: dict[int, int] = {}
    taken_cols: set[int] = set()
    # flat indices ascend row-major, so a stable sort breaks ties by (row, col)
    for k in flat[cost.ravel()[flat].argsort(kind="stable")].tolist():
        r, c = divmod(k, cost.shape[1])
        if r not in pairs and c not in taken_cols:
            pairs[r] = c
            taken_cols.add(c)
            if len(pairs) == min(cost.shape):   # every row or every column is taken
                break
    return pairs


def max_assignment(weight: np.ndarray) -> list[tuple[int, int]]:
    """Exact maximum-weight one-to-one (row, col) pairs covering every row of
    the smaller side, in O(n^2 m): each row joins by a shortest augmenting
    path under row/column potentials."""
    weight = np.asarray(weight, dtype=np.float64)
    n, m = weight.shape
    if n > m:
        return sorted((r, c) for c, r in max_assignment(weight.T))
    cost = np.pad(-weight, ((1, 0), (1, 0)))    # 1-based; column 0 is the root
    u, v = np.zeros(n + 1), np.zeros(m + 1)     # row and column potentials
    owner = np.zeros(m + 1, dtype=np.int64)     # row holding each column, 0 = free
    for i in range(1, n + 1):
        owner[0], j = i, 0
        slack, way = np.full(m + 1, np.inf), np.zeros(m + 1, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while owner[j]:
            used[j] = True
            cur = cost[owner[j]] - u[owner[j]] - v
            better = ~used & (cur < slack)
            slack[better], way[better] = cur[better], j
            j = int(np.where(used, np.inf, slack).argmin())
            delta = slack[j]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while j:                                # flip the path back to the root
            owner[j], j = owner[way[j]], way[j]
    return sorted((int(owner[j]) - 1, j - 1) for j in range(1, m + 1) if owner[j])
