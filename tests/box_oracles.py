"""Test oracles on one group-pair box, given as its raw ``(rows, cols)``.

The box's total order is that of the tagged sums ``(rows[x] + cols[y], x,
y)``: ``core.box_order``, which Fredman's trick reads off the sorted
difference lists.  No solver calls these; the tests check the contour
catalog, the anchor sets, the matcher and the catalog walk against them.
:func:`staircase_walk` is the scalar oracle of ``threesum._catalog_walk``:
it searches one visit at a time with per-box searchers
(:func:`build_box_searcher`, :func:`sorted_search`, :class:`OrderSearch`).
:func:`scalar_subquadratic_simple` and
:func:`scalar_decision_tree_reference` are the permutation solver and the
decision tree's reference mode walked so.
"""

import math

import numpy as np

from threebench.core import (as_reals, box_order, cut_groups, sort_differences, sorted_counted,
                             ternary_search)
from threebench.dominance import report_dominating_pairs, sorting_permutations
from threebench.threesum import (PERM_BUDGET, Contour, _sort_ticks, _triangle_visits,
                                 default_group_size, default_simple_group_size, match_boxes)


def tagged_sum(box, x, y):
    """The key of position ``(x, y)``: ``(rows[x] + cols[y], x, y)``."""
    rows, cols = box
    return (rows[x] + cols[y], x, y)


def compute_contour(box, key):
    """Trace the two-pointer search for `key`, a ``(value, row, col)``
    tuple, through the box.

    Every occurrence of the key lies on the returned path; positions the
    path classifies as <= key / > key match the box contents exactly.
    """
    rows, cols = box
    steps = []
    moves = []
    lo, hi = 0, len(cols) - 1
    while lo < len(rows) and hi >= 0:
        steps.append((lo, hi))
        if key < tagged_sum(box, lo, hi):
            moves.append("W")
            hi -= 1
        else:
            moves.append("S")
            lo += 1
    return Contour(tuple(steps), tuple(moves), len(rows), len(cols))


def is_bad(box, point_set, span):
    """True iff more than `span` consecutive elements of the box's sorted
    order avoid the point set."""
    run = 0
    for pos in box_order(*box)[0]:
        if pos in point_set.positions:
            run = 0
        else:
            run += 1
            if run > span:
                return True
    return False


class OrderSearch:
    """A box's positions in ascending order: binary search their raw sums.

    A certified box passes its anchor chain as the order, and ``gaps[t]``
    searches the between-region of anchors t and t + 1.
    """

    def __init__(self, order, raws, gaps=()):
        self.order = order
        self.raws = raws
        self.gaps = gaps

    def search(self, key, ledger):
        res, pos = ternary_search(self.raws, key, ledger)
        if res == "hit":
            return self.order[pos]
        if 0 < pos <= len(self.gaps):
            return self.gaps[pos - 1].search(key, ledger)
        return None


def staircase_walk(svals, g, searcher, ledger):
    """Search every box the walk visits for its key, building each box's
    searcher on first visit; one 3-linear tick per visit that misses, booked
    in one call.  Returns a witness triple or None."""
    searchers: dict = {}
    misses = 0
    for k, lo, hi in zip(*(col.tolist() for col in _triangle_visits(svals, g))):
        s = searchers.get((lo, hi))
        if s is None:
            s = searchers[(lo, hi)] = searcher((lo, hi))
        hit = s.search(-svals[k], ledger)
        if hit is not None:
            ledger.tick(3, misses)
            x, y = hit
            return (svals[lo * g + x], svals[hi * g + y], svals[k])
        misses += 1
    ledger.tick(3, misses)
    return None


def raws(rows, cols, positions) -> list[float]:
    """The raw sums ``rows[x] + cols[y]`` at `positions`, in their order."""
    return [rows[x] + cols[y] for (x, y) in positions]


def sorted_search(rows, cols, ledger) -> OrderSearch:
    """The searcher of a short or uncertified box: sort it outright, booking
    to ``deduce`` one 4-linear tick per comparison the mergesort of the
    tagged sums makes.  Row-major indices order like the (row, col) tags."""
    order, sums = box_order(rows, cols)
    ledger.tick(4, _sort_ticks(rows, cols), "deduce")
    return OrderSearch(order, sums)


def build_box_searcher(groups, i, j, point_set, assignments, ledger):
    """The searcher of box ``(i, j)`` for :func:`staircase_walk`: a
    full box whose matched layers chain every anchor is searched along that
    chain and then its gaps; any other box is sorted outright and booked to
    ``deduce``."""
    g = point_set.width
    rows, cols = groups[i].tolist(), groups[j].tolist()
    if len(rows) != g or len(cols) != g:
        return sorted_search(rows, cols, ledger)
    links = assignments.get((i, j), {})
    nxt = {a: (b, e) for (a, b), e in links.items()}
    chain = [(0, 0)]
    entries = []
    while chain[-1] != (g - 1, g - 1) and len(chain) <= point_set.count:
        step = nxt.get(chain[-1])
        if step is None:
            break
        chain.append(step[0])
        entries.append(step[1])
    complete = (chain[-1] == (g - 1, g - 1)
                and len(chain) == point_set.count
                and len(links) == point_set.count - 1)
    if not complete:
        # bad box: its layer structure was not certified, sort it directly
        return sorted_search(rows, cols, ledger)
    gaps = [OrderSearch(e.order, raws(rows, cols, e.order)) for e in entries]
    return OrderSearch(chain, raws(rows, cols, chain), gaps)


def scalar_subquadratic_simple(values, group_size, ledger):
    """``threesum.solve_subquadratic_simple`` walked one visit at a time:
    each visited full box searches the raw sums of its matched permutation,
    and a box with a short group is sorted outright (:func:`sorted_search`)."""
    arr = as_reals(values)
    n = len(arr)
    if n == 0:
        return None
    g = group_size if group_size is not None else default_simple_group_size(n)
    if math.factorial(g * g) > PERM_BUDGET:
        raise ValueError(f"group size {g} needs {math.factorial(g*g)} permutations; "
                         f"at most {PERM_BUDGET} are enumerated")
    svals = sorted_counted(arr, ledger)
    groups = cut_groups(svals, g)
    full = len(svals) // g
    square = np.reshape(groups[:full], (full, g))
    cells = np.arange(g * g)
    perms, index = sorting_permutations(square[:, cells % g], square[:, cells // g], g * g)

    def searcher(ij):
        i, j = ij
        rows, cols = groups[i].tolist(), groups[j].tolist()
        if max(i, j) >= full:
            return sorted_search(rows, cols, ledger)
        order = [divmod(t, g) for t in perms[index[j, i]].tolist()]
        return OrderSearch(order, raws(rows, cols, order))

    return staircase_walk(svals, g, searcher, ledger)


def scalar_decision_tree_reference(values, group_size, ledger):
    """``threesum.solve_decision_tree(..., mode="reference")`` walked one
    visit at a time: the pure-Python difference sort, then every visited
    box, short ones included, searched along its free :func:`box_order`."""
    arr = as_reals(values)
    g = group_size if group_size is not None else default_group_size(len(arr))
    svals = sorted_counted(arr, ledger)
    groups = cut_groups(svals, g)
    if not groups:
        return None
    sort_differences([(v, range(len(v)), "both") for v in groups], ledger)

    def searcher(ij):
        i, j = ij
        return OrderSearch(*box_order(groups[i], groups[j]))

    return staircase_walk(svals, g, searcher, ledger)


def per_pair_match_boxes(groups, catalog):
    """``threesum.match_boxes`` with the pairs folded one at a time: each
    reported pair appends its entry to its box's list, and every box then
    builds its own ``{(anchor, anchor'): entry}`` dict.  The points are
    ``match_boxes``' own, one `report` call per entry in catalog order."""
    entries = iter(catalog.entries)
    matched: dict = {}

    def report(points, sink):
        entry = next(entries)

        def fold(red, blue):
            sink(red, blue)
            matched.setdefault((red.id, blue.id), []).append(entry)

        return report_dominating_pairs(points, fold)

    match_boxes(groups, catalog, report=report)
    assignments: dict = {}
    for (j, i), found in matched.items():
        slot = assignments[(i, j)] = {(e.anchor, e.anchor_prime): e for e in found}
        assert len(slot) == len(found), "two catalog entries matched one box layer"
    return assignments
