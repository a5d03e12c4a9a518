"""A fixed exact-arithmetic kernel that measures the host's current speed.

A shared 2-vCPU virtual machine can alternate between speeds that differ by
up to 40 % for tens of seconds at a time, so even a job's fastest time over
a 30 s run depends on when the run happened.  The benchmark times this
kernel every CALIBRATE_EVERY_S seconds between jobs and scales its times by
REFERENCE_S / (the kernel's 10th-percentile time): a time at the reference
speed, that of a host which runs the kernel in REFERENCE_S seconds.

The kernel does the kind of work liecochain does, in code of its own that
no change to the program touches: exact elimination on a sparse rational
matrix, and the product of two polynomials kept as dicts keyed by tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction

REFERENCE_S = 0.030
CALIBRATE_EVERY_S = 0.5

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) if _rng.random() < 0.4
            else Fraction(0) for _ in range(24)] for _ in range(20)]
_POLY = {((i, j), ()): Fraction(_rng.randint(-5, 5), _rng.randint(1, 4))
         for i in range(7) for j in range(7) if i + j < 7}


def kernel():
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    product = {}
    for (m1, s1), c1 in _POLY.items():
        for (m2, s2), c2 in _POLY.items():
            key = ((m1[0] + m2[0], m1[1] + m2[1]), s1 + s2)
            product[key] = product.get(key, Fraction(0)) + c1 * c2
    return rows, product


def speed_factor(samples):
    """REFERENCE_S over the 10th percentile of the kernel's times."""
    s = sorted(samples)
    return REFERENCE_S / s[len(s) // 10]
