import math
from itertools import product

import numpy as np
import pytest

from sgkron.multiindex import MultiIndexSet, build_index_set, dimension


def brute_force_indices(M, k):
    # Independent enumeration: filter the full degree box.
    out = [alpha for alpha in product(range(k + 1), repeat=M) if sum(alpha) <= k]
    out.sort(key=lambda a: (sum(a), a))
    return out


class TestCardinality:
    def test_dimension_formula(self):
        for M in range(1, 9):
            for k in range(0, 7):
                assert dimension(M, k) == math.comb(M + k, k)

    def test_dimension_matches_enumeration(self):
        for M in (1, 2, 3, 4):
            for k in (0, 1, 2, 3, 4):
                S = build_index_set(M, k)
                assert len(S) == dimension(M, k)
                assert len(S) == len(brute_force_indices(M, k))

    def test_known_counts(self):
        assert dimension(8, 4) == 495
        assert dimension(8, 6) == 3003
        assert dimension(6, 12) == 18564

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_index_set(0, 2)
        with pytest.raises(ValueError):
            build_index_set(3, -1)
        with pytest.raises(ValueError):
            dimension(-1, 2)


class TestOrdering:
    def test_zero_index_first(self):
        for M, k in [(1, 0), (3, 2), (8, 4)]:
            S = build_index_set(M, k)
            assert S[0] == (0,) * M

    def test_degree_ascending_then_lex(self):
        S = build_index_set(4, 5)
        keys = [(sum(a), a) for a in S]
        assert keys == sorted(keys)

    def test_matches_brute_force_order(self):
        for M, k in [(2, 3), (3, 4), (5, 2)]:
            S = build_index_set(M, k)
            assert list(S.indices) == brute_force_indices(M, k)

    def test_brute_force_order_up_to_m4_k6(self):
        # M = 1 takes the one-slot shortcut, M >= 2 the stars and bars.
        for M, k in product(range(1, 5), range(7)):
            assert list(build_index_set(M, k).indices) == brute_force_indices(M, k), (M, k)
        assert build_index_set(1, 500).indices == tuple((d,) for d in range(501))

    def test_per_degree_counts(self):
        # Stars and bars: exactly binomial(M + d - 1, d) indices of degree d.
        S = build_index_set(5, 6)
        for d in range(7):
            count = sum(1 for a in S if sum(a) == d)
            assert count == math.comb(5 + d - 1, d)


class TestPositionBijection:
    def test_roundtrip(self):
        S = build_index_set(6, 4)
        for j, alpha in enumerate(S):
            assert S.position(alpha) == j
            assert S[j] == alpha

    def test_membership(self):
        S = build_index_set(3, 3)
        assert (1, 2, 0) in S
        assert (4, 0, 0) not in S
        assert (1, 1, 2) not in S

    def test_position_rejects_nonmember(self):
        S = build_index_set(2, 2)
        with pytest.raises(KeyError):
            S.position((3, 0))

    def test_accepts_list_input(self):
        S = build_index_set(3, 2)
        assert S.position([0, 1, 0]) == S.position((0, 1, 0))


class TestDataclassBehavior:
    def test_iteration_and_len(self):
        S = build_index_set(2, 2)
        assert len(list(S)) == len(S) == 6

    def test_frozen(self):
        S = build_index_set(2, 1)
        with pytest.raises(Exception):
            S.M = 5

    def test_is_dataclass_roundtrip(self):
        S = build_index_set(2, 2)
        assert isinstance(S, MultiIndexSet)
        assert S.M == 2 and S.k == 2
