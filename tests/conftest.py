from fractions import Fraction

import pytest

from stoptime import demo


@pytest.fixture
def coin_space():
    return demo.coin_space()


@pytest.fixture
def coin_space_coarse():
    return demo.coin_space_coarse()


@pytest.fixture
def coin_mixed():
    return demo.coin_mixed()


@pytest.fixture
def coin_mixed_flipped():
    return demo.coin_mixed_flipped()


@pytest.fixture
def coin_randomized():
    return demo.coin_randomized()


@pytest.fixture
def coin_delta():
    return demo.coin_uniform_delta()


def F(x):
    return Fraction(x)


# The seed's Fraction readers of a section, which the library now reads as
# ints over the breaks' denominator; test modules import them as oracles.

def mass_of_index(s, index: int) -> Fraction:
    """Lebesgue measure of {r : value(r) == index}."""
    return sum((s.breaks[i + 1] - s.breaks[i]
                for i, v in enumerate(s.values) if v == index), Fraction(0))


def le_intervals(s, index: int) -> tuple:
    """{r : value(r) <= index} as a sorted tuple of disjoint [a, b) pairs."""
    out = []
    for i, v in enumerate(s.values):
        if v <= index:
            a, b = s.breaks[i], s.breaks[i + 1]
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return tuple(out)


def interval_intersection_measure(xs, ys) -> Fraction:
    """Measure of the intersection of two sorted disjoint interval unions."""
    total = Fraction(0)
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            total += b - a
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def symmetric_difference_measure(xs, ys) -> Fraction:
    """lambda(A symmetric-difference B) for interval unions A, B."""
    mx = sum((b - a for a, b in xs), Fraction(0))
    my = sum((b - a for a, b in ys), Fraction(0))
    return mx + my - 2 * interval_intersection_measure(xs, ys)
