"""Linear degeneracy testing for odd arity by reduction to unbalanced 3SUM.

A k-variate form alpha_0 + sum(alpha_i * x_i) has a zero on S^k iff the
reduction's three lists contain a zero-summing triple: the first two lists
hold all partial sums over the low and high halves of the variables, the
third is alpha_k * S.  The grouped-search kernel of :mod:`core` then
answers the question with far fewer sign queries than the quadratic scan:
:func:`difference_ticks` pays for the difference lists, :func:`box_order`
deduces each box's order for free, and a staircase walk over the
unbalanced grid of A-groups by B-groups binary-searches the boxes it
visits.  The price is wider query arity: difference comparisons touch
2k-2 input reals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .core import (ComparisonLedger, as_reals, box_order, difference_ticks, sorted_counted,
                   ternary_search)
from .threesum import Grouping, default_group_size

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


def oracle_kldt(phi: LinearForm, values: Sequence[float]) -> bool:
    """Exhaustive scan of S^k."""
    k = phi.arity
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) ** k > ORACLE_CAP:
        raise ValueError("oracle would exceed the element cap")
    total = np.array(float(phi.coefficients[0]))
    for i in range(1, k + 1):
        total = total[..., None] + phi.coefficients[i] * vals
    return bool((total == 0.0).any())


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
    g = group_size if group_size is not None else default_group_size(len(a_sorted))
    ga = Grouping(tuple(a_sorted), g)
    gb = Grouping(tuple(b_sorted), g)
    ma, mb = ga.num_groups, gb.num_groups

    segments = [(ga.group_values(i), range(ga.group_len(i)), "row") for i in range(ma)] \
        + [(gb.group_values(j), range(gb.group_len(j)), "col") for j in range(mb)]
    difference_ticks(segments, ledger, arity=2 * k - 2)
    ledger.snapshot("differences_sorted")

    @lru_cache(maxsize=None)
    def box_raws(i, j):
        return box_order(ga.group_values(i), gb.group_values(j))[1]

    for c in c_list:
        key = -c
        lo, hi = 0, mb - 1
        while lo < ma and hi >= 0:
            res, _ = ternary_search(box_raws(lo, hi), key, ledger, arity=k)
            if res == "hit":
                return True
            ledger.tick(k)
            if ga.gmax(lo) + gb.gmin(hi) > key:
                hi -= 1
            else:
                lo += 1
    return False
