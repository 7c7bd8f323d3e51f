import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posgeom.exact import DenseTensor
from posgeom.signature import (
    PiecewiseLinearPath,
    SignatureTensorStack,
    cyclic_path,
    identity_stack,
    segment_signature,
    shuffle_check,
    shuffles,
    signature,
)


def random_path(rng, dim, segments):
    points = [
        tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
        for _ in range(segments + 1)
    ]
    return PiecewiseLinearPath.from_points(points)


def test_single_segment_exponential():
    stack = segment_signature((F(2), F(3)), 3)
    assert stack.entry([1, 1]) == 2
    assert stack.entry([1, 2]) == 3
    assert stack.entry([1, 1, 1]) == F(8, 6)


def test_two_segment_level_two():
    path = PiecewiseLinearPath.from_points([(0, 0), (1, 0), (1, 1)])
    stack = signature(path, 2)
    assert stack.entry([1, 1]) == F(1, 2)
    assert stack.entry([1, 2]) == 1
    assert stack.entry([2, 1]) == 0
    assert stack.entry([2, 2]) == F(1, 2)
    assert stack.levels[0].entries[0] == 1


def test_level_one_is_displacement():
    rng = random.Random(2)
    for _ in range(10):
        path = random_path(rng, 3, 4)
        stack = signature(path, 1)
        for i in range(3):
            assert stack.entry([i + 1]) == path.points[-1][i] - path.points[0][i]


def test_zero_segments_are_neutral():
    with_zero = PiecewiseLinearPath.from_points([(0, 0), (1, 1), (1, 1), (2, 0)])
    without = PiecewiseLinearPath.from_points([(0, 0), (1, 1), (2, 0)])
    assert signature(with_zero, 3) == signature(without, 3)


def test_chen_identity():
    rng = random.Random(0)
    for _ in range(10):
        dim = rng.choice([2, 3])
        p = random_path(rng, dim, 3)
        q = random_path(rng, dim, 2)
        assert signature(p.concatenate(q), 4) == signature(p, 4).product(signature(q, 4))


def test_refinement_invariance():
    rng = random.Random(1)
    for _ in range(10):
        path = random_path(rng, 2, 3)
        for segment in range(3):
            assert signature(path.refined(segment), 4) == signature(path, 4)


def test_reversal_inverse():
    rng = random.Random(3)
    for _ in range(10):
        dim = rng.choice([2, 3])
        path = random_path(rng, dim, 3)
        product = signature(path.reversed(), 4).product(signature(path, 4))
        assert product == identity_stack(dim, 4)


def test_shuffle_examples():
    path = PiecewiseLinearPath.from_points([(0, 0), (1, 0), (1, 1)])
    stack = signature(path, 2)
    assert stack.entry([1]) * stack.entry([2]) == stack.entry([1, 2]) + stack.entry([2, 1])
    assert shuffle_check(stack, [1], [2])
    assert shuffle_check(stack, [1], [1])  # sigma_1^2 = 2 sigma_11


def test_shuffle_relations_all_words():
    rng = random.Random(4)
    for _ in range(10):
        dim = 2
        stack = signature(random_path(rng, dim, 3), 4)
        words = [(a,) for a in (1, 2)] + [(a, b) for a in (1, 2) for b in (1, 2)]
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) <= 4:
                    assert shuffle_check(stack, w1, w2)


def test_shuffle_multiplicity():
    assert sorted(shuffles((1,), (2,))) == [(1, 2), (2, 1)]
    assert len(list(shuffles((1, 2), (3, 4)))) == 6


def test_shuffle_length_guard():
    stack = signature(PiecewiseLinearPath.from_points([(0, 0), (1, 1)]), 2)
    with pytest.raises(ValueError):
        shuffle_check(stack, [1, 2], [1, 2])


def test_cyclic_path():
    path = cyclic_path([1, 2], 3)
    assert path.points == ((F(1), F(1), F(1)), (F(2), F(4), F(8)))
    five = cyclic_path([1, 2, 3, 4, 5], 3)
    # breakpoints are the twisted-cubic rows without the leading one
    from posgeom.grassmann import twisted_cubic_z

    z = twisted_cubic_z([1, 2, 3, 4, 5])
    assert five.points == tuple(r[1:] for r in z.rows)
    stack = signature(five, 1)
    assert [stack.entry([i]) for i in (1, 2, 3)] == [4, 24, 124]
    with pytest.raises(ValueError):
        cyclic_path([2, 1], 3)


def test_truncation_guard():
    path = PiecewiseLinearPath.from_points([[0] * 10, [1] * 10])
    with pytest.raises(ValueError):
        signature(path, 8)


RATIONALS = st.sampled_from([F(a, b) for a in range(-6, 7) for b in (1, 2, 3, 5)])


@st.composite
def stack_pairs(draw):
    """Two random rational stacks of one shape; level 0 need not be 1."""
    dim, depth = draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def stack():
        return SignatureTensorStack(tuple(
            DenseTensor(dim, k, draw(st.lists(RATIONALS, min_size=dim**k, max_size=dim**k)))
            for k in range(depth + 1)
        ))

    return stack(), stack()


def reference_product(a, b):
    levels = []
    for k in range(a.depth + 1):
        entries = [F(0)] * a.dim**k
        for i in range(k + 1):
            right = b.levels[k - i].entries
            for x, u in enumerate(a.levels[i].entries):
                for y, v in enumerate(right):
                    entries[x * len(right) + y] += u * v
        levels.append(entries)
    return levels


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(stack_pairs())
def test_product_is_the_fraction_tensor_algebra_product(pair):
    a, b = pair
    product = a.product(b)
    assert [list(t.entries) for t in product.levels] == reference_product(a, b)
    assert all(type(x) is F for t in product.levels for x in t.entries)


def reference_segment_signature(increment, depth):
    """Level k as level k - 1 outer v, scaled by 1/k, in Fraction arithmetic."""
    v = DenseTensor(len(increment), 1, [F(x) for x in increment])
    levels = [DenseTensor(len(increment), 0, [F(1)])]
    for k in range(1, depth + 1):
        levels.append(levels[-1].outer(v).scale(F(1, k)))
    return levels


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=3), st.integers(0, 5))
@example([F(0), F(0)], 5)
@example([F(0), F(-3, 2), F(0)], 5)
def test_segment_exponential_is_the_scaled_outer_power(increment, depth):
    stack = segment_signature(increment, depth)
    assert stack.levels == tuple(reference_segment_signature(increment, depth))
    assert all(type(x) is F for t in stack.levels for x in t.entries)
