"""The integer echelon routine against the field-value row reduction."""

import random
from fractions import Fraction

import pytest

from closurelab.field import QQ, prime_field
from closurelab.linalg import Echelon, rank

import oracles

FIELDS = {"Q": QQ, "F5": prime_field(5)}

# (rows, columns): empty, no columns, one column, one row, square, wide, tall
SHAPES = [(0, 0), (0, 4), (1, 0), (3, 1), (1, 5), (4, 4), (3, 9), (9, 3),
          (6, 6)]


def _entry(fld, rng):
    if rng.random() < 0.45:
        return fld.zero
    if fld.char:
        return fld.from_int(rng.randint(1, 4))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _matrix(fld, nrows, ncols, rng):
    """Random rows, with zero rows, duplicate rows and combinations of
    earlier rows among them."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.25:
            rows.append([fld.zero] * ncols)
        elif len(rows) > 1 and kind < 0.45:
            a, b = rng.sample(rows, 2)
            s, t = _entry(fld, rng), _entry(fld, rng)
            rows.append([fld.add(fld.mul(s, x), fld.mul(t, y))
                         for x, y in zip(a, b)])
        else:
            rows.append([_entry(fld, rng) for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("name", FIELDS)
def test_echelon_matches_field_value_reduction(name):
    fld = FIELDS[name]
    rng = random.Random(f"echelon-{name}")
    for trial in range(150):
        nrows, ncols = SHAPES[trial % len(SHAPES)]
        rows = _matrix(fld, nrows, ncols, rng)
        assert rank(rows, fld) == oracles.rank(rows, fld), (trial, rows)
        echelon = Echelon(fld)
        flags = [echelon.add(row) for row in rows]
        rref, pivots = oracles.row_reduce(rows, fld)
        assert echelon.rank == len(rref)
        assert sorted(p for p, _row in echelon.rows) == pivots
        # a row is kept exactly when it raises the rank of those before it
        assert flags == [oracles.rank(rows[:i + 1], fld)
                         > oracles.rank(rows[:i], fld)
                         for i in range(len(rows))]
        probes = _matrix(fld, 4, ncols, rng) + rows[:2]
        for v in probes:
            assert echelon.residual(v) == \
                oracles.residual(rref, pivots, v, fld), (trial, rows, v)
