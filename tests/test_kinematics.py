import hashlib
import json
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from posgeom.kinematics import (
    KinematicData,
    abhy_constants,
    cyclic_relabel,
    dihedral_exponents,
    is_generic,
    kinematics_from_planar,
    planar_variables,
    polygon_diagonals,
    sample_abhy_kinematics,
    sample_kinematics,
    subset_invariant,
)


def test_diagonal_counts():
    for n in range(4, 10):
        assert len(polygon_diagonals(n)) == n * (n - 3) // 2


def test_momentum_conservation_all_seeds():
    for seed in range(100):
        k = sample_kinematics(5, seed)
        for row in k.s:
            assert sum(row) == 0


def test_planar_roundtrip():
    for n in (4, 5, 6, 7):
        for seed in (0, 1, 2):
            k = sample_kinematics(n, seed)
            assert kinematics_from_planar(n, planar_variables(k)) == k


def test_single_planar_value_dictionary():
    planar = {d: F(0) for d in polygon_diagonals(5)}
    planar[(1, 3)] = F(1)
    k = kinematics_from_planar(5, planar)
    assert k.s[0][1] == 1
    for row in k.s:
        assert sum(row) == 0


def test_zero_planar_gives_zero_matrix():
    k = kinematics_from_planar(4, {d: F(0) for d in polygon_diagonals(4)})
    assert all(v == 0 for row in k.s for v in row)


def test_invariant_validation():
    with pytest.raises(ValueError):
        KinematicData(4, tuple(tuple(F(1) for _ in range(4)) for _ in range(4)))


def test_dihedral_exponent_formula_instance():
    k = sample_kinematics(5, 11)
    x = dihedral_exponents(k)
    assert x[(1, 3)] == k.entry(1, 4) + k.entry(2, 3) - k.entry(1, 3) - k.entry(2, 4)


def test_dihedral_exponents_spreadsheet_oracle():
    # independent evaluation: raw index arithmetic straight off the matrix
    k = sample_kinematics(5, 42)
    x = dihedral_exponents(k)
    s = [[float(v) for v in row] for row in k.s]

    def entry(i, j):
        return s[(i - 1) % 5][(j - 1) % 5]

    for (i, j), val in x.items():
        assert float(val) == pytest.approx(entry(i, j + 1) + entry(i + 1, j) - entry(i, j) - entry(i + 1, j + 1))


def test_positive_mode():
    for seed in range(10):
        k = sample_kinematics(5, seed, positive=True)
        assert all(v > 0 for v in planar_variables(k).values())


def test_abhy_sampling():
    for seed in range(25):
        k = sample_abhy_kinematics(seed)
        assert all(v > 0 for v in planar_variables(k).values())
        assert all(c > 0 for c in abhy_constants(k))


def test_genericity_screen():
    for seed in range(30):
        assert is_generic(sample_kinematics(6, seed))


def test_cyclic_relabel_is_symmetric_conserving():
    k = sample_kinematics(6, 5)
    r = cyclic_relabel(k)
    assert r.s[0][1] == k.s[1][2]
    for row in r.s:
        assert sum(row) == 0


def test_json_roundtrip():
    k = sample_kinematics(5, 3)
    assert KinematicData.from_dict(k.to_dict()) == k


# the first grid (planar values v/12, 1 <= |v| <= 120) fails all 64 draws here
FIRST_GRID_FAILURES = {(12, 28), (12, 41), (12, 47), (12, 48)}


def test_sampled_kinematics_are_pinned():
    # the JSON of every draw the first grid serves, as it was before the
    # grid could widen and before is_generic ran on integers
    lines = [
        json.dumps(sample_kinematics(n, seed).to_dict())
        for n in range(4, 13)
        for seed in range(50)
        if (n, seed) not in FIRST_GRID_FAILURES
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0e5dce3d0717519e5dd46510e4b85ffe81163ec2e9d9ad719078ba66963afe82"
    for n, seed in FIRST_GRID_FAILURES:
        assert is_generic(sample_kinematics(n, seed))


def test_sampled_abhy_kinematics_are_pinned():
    # the JSON of the pentagon sampler's first 50 draws, as it was when the
    # planar values were written out by hand rather than read from the chart
    lines = [json.dumps(sample_abhy_kinematics(seed).to_dict()) for seed in range(50)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "08d5aab3d5cf1846e477da539ba41744afba602233dfc713d2be6556ce589c0e"


@pytest.mark.parametrize("n", range(13, 21))
def test_large_n_samples_in_under_a_second(n):
    for positive in (False, True):
        started = time.process_time()
        k = sample_kinematics(n, 0, positive=positive)
        assert time.process_time() - started < 1.0
        assert all(sum(row) == 0 for row in k.s)
        assert all(v > 0 for v in planar_variables(k).values()) or not positive


def brute_force_generic(k):
    return all(
        subset_invariant(k, subset) != 0
        for size in range(2, k.n // 2 + 1)
        for subset in combinations(range(1, k.n + 1), size)
    )


def test_is_generic_matches_the_subset_enumeration():
    # small grids make vanishing invariants common, and the 10**30 scale
    # needs arbitrary-precision entries
    rng = random.Random(0)
    seen = set()
    for trial in range(200):
        n = rng.randint(4, 9)
        scale = 10**30 if trial % 5 == 0 else 1
        planar = {d: F(rng.randint(-6, 6), rng.choice((1, 2, 3))) * scale for d in polygon_diagonals(n)}
        k = kinematics_from_planar(n, planar)
        expected = brute_force_generic(k)
        assert is_generic(k) == expected
        seen.add(expected)
    assert seen == {True, False}
