import itertools

import numpy as np

from lanekit.matching import greedy_pairs, max_assignment


def greedy_ref(cost, allowed):
    """The rule written out: sort (cost, row, col), skip taken rows/columns."""
    taken_r, taken_c, pairs = set(), set(), []
    for _, r, c in sorted((float(cost[r, c]), r, c)
                          for r in range(cost.shape[0]) for c in range(cost.shape[1])
                          if allowed[r, c]):
        if r not in taken_r and c not in taken_c:
            taken_r.add(r)
            taken_c.add(c)
            pairs.append((r, c))
    return pairs


def best_weight_ref(weight):
    n, m = weight.shape
    if n > m:
        return best_weight_ref(weight.T)
    return max(sum(weight[i, j] for i, j in enumerate(perm))
               for perm in itertools.permutations(range(m), n))


def test_greedy_pairs_matches_sorted_reference_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(500):
        n, m = (int(v) for v in rng.integers(0, 7, 2))
        cost = rng.integers(-2, 3, (n, m)).astype(np.float64)   # many ties
        allowed = rng.random((n, m)) < 0.8
        # the dict keeps the pairs in the order they were taken
        assert list(greedy_pairs(cost, allowed).items()) == greedy_ref(cost, allowed), trial


def test_greedy_pairs_empty_shapes():
    for shape in ((0, 0), (0, 4), (3, 0)):
        assert greedy_pairs(np.zeros(shape), np.ones(shape, dtype=bool)) == {}
    assert greedy_pairs(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool)) == {}


def test_greedy_pairs_ties_go_to_lower_row_then_lower_column():
    assert greedy_pairs(np.zeros((2, 2)), np.ones((2, 2), dtype=bool)) == {0: 0, 1: 1}
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert greedy_pairs(cost, np.ones((2, 2), dtype=bool)) == {0: 1, 1: 0}


def test_max_assignment_matches_exhaustive_search():
    rng = np.random.default_rng(1)
    for trial in range(400):
        n, m = (int(v) for v in rng.integers(0, 7, 2))
        weight = rng.integers(0, 6, (n, m))
        pairs = max_assignment(weight)
        assert len(pairs) == min(n, m), trial
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
        assert sum(weight[r, c] for r, c in pairs) == best_weight_ref(weight), trial


def test_max_assignment_beats_greedy_where_greedy_is_wrong():
    weight = np.array([[3, 2], [2, 0]])
    assert max_assignment(weight) == [(0, 1), (1, 0)]


def test_max_assignment_permuted_diagonal_30():
    perm = np.random.default_rng(2).permutation(30)
    weight = np.ones((30, 30), dtype=np.int64)
    weight[np.arange(30), perm] = 100
    assert max_assignment(weight) == [(i, int(perm[i])) for i in range(30)]
    assert max_assignment(weight.T) == sorted((int(perm[i]), i) for i in range(30))
