#!/usr/bin/env python3
"""Regenerate tests/fixtures/cdf_reference.json from mpmath at 30 digits.

The fixture freezes high-precision values for the hand-rolled special
functions so the test suite can assert 1e-10 agreement without a runtime
mpmath dependency. Needs the test extra: pip install -e ".[test]".
"""

from __future__ import annotations

import json
from pathlib import Path

from mpmath import mp, mpf, erfc, erfinv, sqrt, betainc

mp.dps = 30

NORMAL_POINTS = [
    -8.0, -5.0, -3.5, -2.575829, -1.959964, -1.644854, -1.0, -0.5,
    -0.1234, 0.0, 0.1234, 0.5, 1.0, 1.281552, 1.644854, 1.959964,
    2.326348, 3.0, 4.417, 6.0,
]

# (t, df) pairs: tiny and huge statistics, low and high df, both signs
STUDENT_POINTS = [
    (0.0, 1), (0.5, 1), (1.0, 1), (2.0, 2), (-2.0, 2),
    (0.25, 3), (1.5, 4), (2.2281, 10), (-1.3, 5), (3.276278640051376, 21),
    (2.8288891275138033, 6),
    (8.87796045374068, 3), (0.7, 7), (1.9, 12), (-0.9, 15),
    (2.5, 25), (4.0, 30), (-3.1, 40), (1.1, 60), (0.05, 100),
]

PPF_POINTS = [
    0.0001, 0.001, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975,
    0.99, 0.999, 0.9999, 0.9999999, 1 - 1e-10,
    # the smallest subnormal, a deeper subnormal, the smallest normal and 1 - 2^-53
    5e-324, 1e-310, 2.2250738585072014e-308, 1 - 2**-53,
]

def normal_cdf(x):
    return 0.5 * erfc(-mpf(x) / sqrt(2))


def normal_ppf(p):
    # 2p - 1 keeps p's digits only with as many more digits as p has leading zeros
    with mp.workdps(mp.dps + max(0, -int(mp.log10(p)))):
        return sqrt(2) * erfinv(2 * mpf(p) - 1)


def student_t_sf(t, df):
    t = mpf(t)
    x = df / (df + t * t)
    tail = 0.5 * betainc(mpf(df) / 2, mpf("0.5"), 0, x, regularized=True)
    return tail if t >= 0 else 1 - tail


def main() -> None:
    fixture = {
        "dps": mp.dps,
        "normal_cdf": [
            {"x": repr(x), "value": mp.nstr(normal_cdf(x), 25)}
            for x in NORMAL_POINTS
        ],
        "student_t_sf": [
            {"t": repr(t), "df": df, "value": mp.nstr(student_t_sf(t, df), 25)}
            for t, df in STUDENT_POINTS
        ],
        "normal_ppf": [
            {"p": repr(p), "value": mp.nstr(normal_ppf(p), 25)}
            for p in PPF_POINTS
        ],
    }
    out = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "cdf_reference.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
