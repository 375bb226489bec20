"""Linear degeneracy testing for odd arity by reduction to unbalanced 3SUM.

A k-variate form alpha_0 + sum(alpha_i * x_i) has a zero on S^k iff the
reduction's three lists contain a zero-summing triple: the first two lists
hold all partial sums over the low and high halves of the variables, the
third is alpha_k * S.  The grouped-search kernel of :mod:`core` then
answers the question with far fewer sign queries than the quadratic scan:
:func:`difference_ticks` pays for the difference lists, every box's order
follows from them for free, and :func:`staircase_visits` walks the keys of
C over the unbalanced grid of A-groups by B-groups, :func:`search_visits`
pricing the binary search of every box they visit.  The price is wider
query arity: difference comparisons touch 2k-2 input reals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .core import (ComparisonLedger, as_reals, cut_groups, difference_ticks, search_visits,
                   sorted_counted, staircase_visits)
from .threesum import default_group_size

ELEMENT_CAP = 10_000_000
ORACLE_CAP = 50_000_000


@dataclass(frozen=True)
class LinearForm:
    """alpha_0 + alpha_1 x_1 + ... + alpha_k x_k with odd k >= 3."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        k = self.arity
        if k < 3 or k % 2 == 0:
            raise ValueError(f"arity must be odd and >= 3, got {k}")
        if any(a == 0 for a in self.coefficients[1:]):
            raise ValueError("non-constant coefficients must be nonzero")

    @property
    def arity(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, xs: Sequence[float]) -> float:
        if len(xs) != self.arity:
            raise ValueError("wrong number of arguments")
        return self.coefficients[0] + sum(a * x for a, x in zip(self.coefficients[1:], xs))


def reduce_kldt(phi: LinearForm, values: Sequence[float]):
    """Build the unbalanced three-list instance (A, B, C).

    |A| = |B| = n^((k-1)/2) exactly (duplicates kept), |C| = n; the form has
    a zero on S^k iff some a + b + c = 0.
    """
    k = phi.arity
    n = len(values)
    half = (k - 1) // 2
    if n ** half > ELEMENT_CAP:
        raise ValueError("reduction would exceed the element cap")
    alpha = phi.coefficients
    scaled = [[alpha[i] * float(v) for v in values] for i in range(1, k + 1)]
    a_list = [alpha[0] + sum(combo) for combo in product(*scaled[:half])]
    b_list = [sum(combo) for combo in product(*scaled[half:k - 1])]
    c_list = list(scaled[k - 1])
    return a_list, b_list, c_list


def default_kldt_group_size(arity: int, n: int) -> int:
    """Group size of :func:`solve_kldt`: sqrt(N log N) for the |A| = N =
    n^((k-1)/2) elements of the reduction's first list."""
    return default_group_size(n ** ((arity - 1) // 2))


def oracle_kldt(phi: LinearForm, values: Sequence[float]) -> bool:
    """Exhaustive scan of S^k, one slab of n^(k-1) values per first value."""
    k = phi.arity
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) ** k > ORACLE_CAP:
        raise ValueError("oracle would exceed the element cap")
    for total in float(phi.coefficients[0]) + phi.coefficients[1] * vals:
        for alpha in phi.coefficients[2:]:
            total = total[..., None] + alpha * vals
        if (total == 0.0).any():
            return True
    return False


def solve_kldt(phi: LinearForm, values: Sequence[float],
               group_size: Optional[int], ledger: ComparisonLedger) -> bool:
    """Grouped unbalanced 3SUM over the reduction lists.

    Sorting A and B costs (k-1)-ary ticks, the difference list (2k-2)-ary
    ticks, and each membership probe compares one C element against an
    (A+B) sum, a k-ary query.
    """
    k = phi.arity
    a_list, b_list, c_list = reduce_kldt(phi, as_reals(values))
    if not a_list or not b_list or not c_list:
        return False

    a_sorted = sorted_counted(a_list, ledger, arity=k - 1)
    b_sorted = sorted_counted(b_list, ledger, arity=k - 1)
    g = group_size if group_size is not None else default_kldt_group_size(k, len(c_list))
    a_groups = cut_groups(a_sorted, g)
    b_groups = cut_groups(b_sorted, g)

    segments = [(grp, range(len(grp)), "row") for grp in a_groups] \
        + [(grp, range(len(grp)), "col") for grp in b_groups]
    difference_ticks(segments, ledger, arity=2 * k - 2)
    ledger.snapshot("differences_sorted")

    keys = -np.array(c_list)
    t, lo, hi = staircase_visits([grp[-1] for grp in a_groups], [grp[0] for grp in b_groups],
                                 keys, len(b_groups) - 1)
    ticks, first = search_visits(a_groups, b_groups, lo, hi, keys[t])
    ledger.tick(k, ticks)
    return first is not None
