"""spectral._row_fsums gives math.fsum's bits on every row, or the exception
math.fsum raises on the first row it raises on, below and from the row count
at which it runs its cascade. Each family runs 100,000 seeded rows in chunks
on both sides of that count, with 2 to 12 columns.
"""

import itertools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from qspectra import spectral

ROWS = 100_000
CROSSOVER = spectral._CASCADE_MIN_ROWS
# row counts cycled through: three below the crossover, three from it on
CHUNKS = (1, 9, CROSSOVER - 1, CROSSOVER, 1000, 4096)
BIG = sys.float_info.max

# neither side may warn, on overflow or otherwise
pytestmark = pytest.mark.filterwarnings("error")


def random_values(rng, shape, low=-30, high=30):
    """Random mantissas in [1, 2), exponents in [low, high], random signs."""
    mantissa = rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    return np.ldexp(mantissa, rng.integers(low, high + 1, shape))


def split(rng, total, k):
    """k small integers per row that add up to total."""
    parts = rng.integers(-40, 41, (len(total), k))
    parts[:, -1] = total - parts[:, :-1].sum(axis=1)
    return parts


def exact_ties(rng, rows, k):
    """A float b plus an odd number of half-ulps of b, cut into pieces:
    halfway between two floats unless it crosses a power of two."""
    b = random_values(rng, rows)
    quarter = np.spacing(np.abs(b)) / 8
    odd = 2 * rng.integers(-4, 4, rows) + 1
    return np.column_stack([b, split(rng, 4 * odd, k - 1) * quarter[:, None]])


def beside_powers_of_two(rng, rows, k):
    """±2^p plus whole multiples of u = 2^(p-56), summing from 12u below to
    20u above it (the ties are at 4u below and 8u above), and at times a
    term far below u that breaks a tie."""
    p = rng.integers(-60, 61, rows)
    sign = rng.choice([-1.0, 1.0], rows)
    u = np.ldexp(1.0, p - 56)
    pieces = split(rng, rng.integers(-12, 21, rows), max(k - 2, 1)) * u[:, None]
    tiny = random_values(rng, rows, -60, -1) * u * (rng.random(rows) < 0.5)
    return sign[:, None] * np.column_stack([np.ldexp(1.0, p), pieces, tiny])


def cancellation(rng, rows, k):
    """Rows that cancel to a tiny result or to zero: values, then minus their
    rounded sum, plus at times one value and its negation."""
    values = random_values(rng, (rows, k - 1))
    values[:, 1::2] = np.where(rng.random((rows, 1)) < 0.3, -values[:, :-1:2], values[:, 1::2])
    return np.column_stack([values, -values.sum(axis=1)])


def signed_zeros(rng, rows, k):
    """+0.0 and -0.0, at times with a value and its negation or a lone value."""
    a = np.where(rng.random((rows, k)) < 0.5, 0.0, -0.0)
    kind = rng.integers(0, 3, rows)
    x = random_values(rng, rows)
    a[:, 0] = np.where(kind > 0, x, a[:, 0])
    a[:, -1] = np.where(kind == 1, -x, a[:, -1])
    return a


def subnormals(rng, rows, k):
    """Integer multiples of 2^-1074, subnormal or just above the least
    normal, at times beside normal values near 2^-1000."""
    units = rng.integers(-2 ** 20, 2 ** 20, (rows, k)) << rng.integers(0, 34, (rows, k))
    a = np.ldexp(units.astype(np.float64), -1074)
    normal = rng.random((rows, k)) < 0.2
    return np.where(normal, random_values(rng, (rows, k), -1010, -990), a)


def magnitudes(rng, rows, k):
    """Values from 2^-1000 to 2^1000, signs at random."""
    return random_values(rng, (rows, k), -1000, 1000)


def non_finite(rng, rows, k):
    """inf, -inf or nan beside finite values, and huge values whose sum is
    past the cascade's guard or overflows: rows on which math.fsum does not
    raise (the exceptions have their own test)."""
    a = random_values(rng, (rows, k), -5, 1023)
    special = np.array([np.inf, -np.inf, np.nan])[rng.integers(0, 3, (rows, k))]
    a = np.where(rng.random((rows, k)) < 0.15, special, a)
    return np.array([row for row in a.tolist() if fsum_or_error(row)[0] == "value"])


FAMILIES = [exact_ties, beside_powers_of_two, cancellation, signed_zeros, subnormals,
            magnitudes, non_finite]


def fsum_or_error(row):
    try:
        return "value", math.fsum(row)
    except (ValueError, OverflowError) as exc:
        return "raises", (type(exc), str(exc))


def chunks(family, seed):
    """The family's seeded rows, ROWS or more of them, cut in CHUNKS sizes,
    each chunk with its own column count."""
    rng = np.random.default_rng(seed)
    produced, size = 0, itertools.cycle(CHUNKS)
    while produced < ROWS:
        rows, k = next(size), int(rng.integers(2, 13))
        a = family(rng, rows, k)
        produced += len(a)
        yield np.ascontiguousarray(a, dtype=np.float64)


@pytest.fixture
def fsum_calls(monkeypatch):
    """The rows that _row_fsums hands to math.fsum."""
    calls = []

    def counted(row):
        calls.append(row)
        return math.fsum(row)

    monkeypatch.setattr(spectral, "math", SimpleNamespace(fsum=counted))
    return calls


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_row_fsums_give_fsums_bits(family, fsum_calls):
    rows = {"below": 0, "from": 0}
    fell_back = 0
    for a in chunks(family, FAMILIES.index(family)):
        want = np.array([math.fsum(row) for row in a.tolist()])
        del fsum_calls[:]
        got = spectral._row_fsums(a)
        same = got.view(np.int64) == want.view(np.int64)
        assert same.all(), [(row, got[i], want[i])
                            for i, row in enumerate(a.tolist()) if not same[i]][:3]
        if len(a) >= CROSSOVER:
            rows["from"] += len(a)
            fell_back += len(fsum_calls)
        else:
            rows["below"] += len(a)
    assert rows["below"] > 1000 and rows["from"] + rows["below"] >= ROWS
    if family in (exact_ties, subnormals, magnitudes):
        # the cascade decides these itself: a zero sum is the only row of
        # them it leaves to math.fsum, and they have few
        assert fell_back < 0.01 * rows["from"], fell_back


def raising_rows(rng, count):
    """Rows on which math.fsum raises: inf beside -inf, or a sum that
    overflows."""
    kinds = [lambda: rng.permutation([np.inf, -np.inf, 1.0]),
             lambda: rng.permutation([np.nan, np.inf, -np.inf]),
             lambda: np.array([BIG, BIG, -BIG]),
             # fsum's partials overflow, a plain left-to-right sum does not
             lambda: np.array([2.0 ** 970, 0.75 * BIG, -BIG]),
             lambda: rng.permutation([-BIG, -BIG, 1.0])]
    rows = [kinds[i % len(kinds)]() for i in range(count)]
    assert all(fsum_or_error(row.tolist())[0] == "raises" for row in rows)
    return rows


@pytest.mark.parametrize("size", [CROSSOVER - 1, CROSSOVER, 600])
def test_row_fsums_raise_what_fsum_raises_on_the_first_row_it_raises_on(size):
    rng = np.random.default_rng(size)
    raising = raising_rows(rng, 300)
    for i, row in enumerate(raising):
        a = non_finite(rng, 2 * size, 3)[:size]
        assert len(a) == size
        first = int(rng.integers(0, len(a)))
        a[first] = row
        if i % 2:
            # a later row that raises another exception must not be the one raised
            a[-1] = raising[i + 1 if i + 1 < len(raising) else 0]
        want = next(error for kind, error in map(fsum_or_error, a.tolist()) if kind == "raises")
        with pytest.raises(want[0]) as caught:
            spectral._row_fsums(a)
        assert str(caught.value) == want[1]
