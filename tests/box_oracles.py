"""Test oracles on one group-pair box, given as its raw ``(rows, cols)``.

The box's total order is that of the tagged sums ``(rows[x] + cols[y], x,
y)``: ``core.box_order``, which Fredman's trick reads off the sorted
difference lists.  No solver calls these; the tests check the contour
catalog, the anchor sets and the matcher against them.
"""

from threebench.core import box_order
from threebench.threesum import Contour


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
