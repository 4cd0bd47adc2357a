"""Print every label-set output that depends on schedule levels, for a diff
between two checkouts.

    PYTHONPATH=src python tests/compare_label_sets.py > labels.txt

Run it on both checkouts and ``cmp`` the two files.  It covers five schedules,
every count their depth allows (j1 = 0, spacing 2), ``to_json`` and the
verification report with twenty density targets, ``levels()``,
``check_ratio_identity()``, and single labels planted next to ell_0,
21/10 ell_0, ell_1 and ell_2.  Not collected by pytest: the deepest schedule
takes minutes when every level is computed at the top level's precision.
"""

import math
from fractions import Fraction

from qpsl.diophantine import frequency_vector, golden_mean, mpf_to_fraction, sqrt2_minus_1
from qpsl.errors import QpslError
from qpsl.label_set import LabelSet, build_schedule, construct_label_set, verify_label_set

SCHEDULES = [(10, 0.9, 6, 1), (100, 0.9, 16, 1), (100, 0.9, 12, 2), (50, 0.5, 14, 1),
             (2000, 0.85, 10, 1)]
TARGETS = [i / 20 for i in range(20)]


def _frequency(d):
    if d == 1:
        return frequency_vector(golden_mean(2700), gamma=0.2, tau=2.0)
    return frequency_vector((golden_mean(2700), sqrt2_minus_1(2700)), gamma=0.1, tau=2.0)


def _planted(sched):
    """Integers on each side of ell_0, 21/10 ell_0, ell_1 and ell_2, with the
    level each is planted at."""
    out = []
    for j, factor in ((0, 1), (0, Fraction(21, 10)), (1, 1), (2, 1)):
        bound = factor * mpf_to_fraction(sched.level(j))
        lo = math.floor(bound)
        out += [(n, j) for n in (lo - 1, lo, lo + 1)]
    return out


def main():
    for M, s, depth, d in SCHEDULES:
        sched = build_schedule(M, s, depth=depth)
        alpha = _frequency(d)
        print(f"schedule M={M} s={s} depth={depth} d={d}")
        print("levels", sched.levels())
        print("ratio identity", sched.check_ratio_identity())
        for count in range(1, depth // 2 + 2):
            try:
                ks = construct_label_set(alpha, sched, j1=0, spacing=2, count=count)
            except QpslError as e:
                print(f"count {count}: {type(e).__name__}: {e}")
                continue
            print(f"count {count}:", ks.to_json())
            print(verify_label_set(ks, sched, density_targets=TARGETS).as_dict())
        for n, j in _planted(sched):
            ks = LabelSet.from_labels([(n,) + (0,) * (d - 1)], alpha, levels=[j])
            print(f"planted {n} at level {j}:", verify_label_set(ks, sched).as_dict())


if __name__ == "__main__":
    main()
