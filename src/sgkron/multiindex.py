"""Multi-index sets for tensorized polynomial bases.

The parametric Galerkin basis is indexed by multi-indices alpha with
total degree |alpha| <= k supported on the first M parameters.  The
linear order fixed here (total degree ascending, ties broken
lexicographically on entries) determines the block layout of every
Kronecker-structured matrix downstream, so it must be deterministic and
identical across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence


def dimension(M: int, k: int) -> int:
    """Cardinality of the index set: binomial(M + k, k)."""
    _check_params(M, k)
    return math.comb(M + k, k)


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices of total degree <= k in M parameters, degree-lex ordered.

    ``indices[j]`` and ``position(alpha)`` realize the bijection between
    linear block indices and multi-indices.
    """

    M: int
    k: int
    indices: tuple[tuple[int, ...], ...]
    _position: dict[tuple[int, ...], int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, j: int) -> tuple[int, ...]:
        return self.indices[j]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.indices)

    def __contains__(self, alpha: Sequence[int]) -> bool:
        return tuple(alpha) in self._position

    def position(self, alpha: Sequence[int]) -> int:
        """Linear index of ``alpha``; raises KeyError if not a member."""
        return self._position[tuple(alpha)]


def _check_params(M: int, k: int) -> None:
    if M < 1:
        raise ValueError(f"parameter count M must be >= 1, got {M}")
    if k < 0:
        raise ValueError(f"max total degree k must be >= 0, got {k}")


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    # Tuples of `slots` nonnegative integers summing to `total`, in
    # ascending lexicographic order: the gaps around `slots - 1` bars among
    # `total + slots - 1` places (stars and bars), whose placements
    # itertools.combinations yields in the same order.  One slot holds the
    # total: combinations(range(n), 0) would copy its pool of n for one ().
    if slots == 1:
        yield (total,)
        return
    n = total + slots - 1
    for bars in itertools.combinations(range(n), slots - 1):
        edges = (-1, *bars, n)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def build_index_set(M: int, k: int) -> MultiIndexSet:
    """Construct I_k^M in degree-lex order; the zero index comes first."""
    _check_params(M, k)
    indices = tuple(
        alpha for degree in range(k + 1) for alpha in _compositions(degree, M)
    )
    position = {alpha: j for j, alpha in enumerate(indices)}
    return MultiIndexSet(M=M, k=k, indices=indices, _position=position)
