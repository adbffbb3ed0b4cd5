import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zosmooth.projections import FeasibleSet, project

from reference import contains


def random_sets(n):
    return [
        FeasibleSet.unconstrained(),
        FeasibleSet.symmetric_box(1.0, n),
        FeasibleSet.box(-2.0 * np.ones(n), 0.5 * np.ones(n)),
        FeasibleSet.unit_ball(n),
        FeasibleSet.ball(0.3 * np.ones(n), 2.5),
    ]


def test_unconstrained_identity():
    u = np.array([3.0, -7.0])
    np.testing.assert_array_equal(project(FeasibleSet.unconstrained(), u), u)


def test_box_clamp():
    box = FeasibleSet.symmetric_box(1.0, 2)
    np.testing.assert_allclose(project(box, np.array([2.0, 0.5])), [1.0, 0.5])


def test_ball_radial_scaling():
    ball = FeasibleSet.unit_ball(2)
    np.testing.assert_allclose(project(ball, np.array([3.0, 4.0])), [0.6, 0.8])


def test_interior_point_unchanged():
    ball = FeasibleSet.unit_ball(3)
    u = np.array([0.1, -0.2, 0.3])
    np.testing.assert_array_equal(project(ball, u), u)


def test_idempotent_and_feasible():
    rng = np.random.default_rng(0)
    for fs in random_sets(4):
        for _ in range(50):
            u = rng.normal(scale=3.0, size=4)
            p = project(fs, u)
            np.testing.assert_array_equal(project(fs, p), p)
            assert contains(fs, p)


def test_non_expansive():
    rng = np.random.default_rng(1)
    for fs in random_sets(3):
        for _ in range(200):
            u = rng.normal(scale=4.0, size=3)
            w = rng.normal(scale=4.0, size=3)
            lhs = np.linalg.norm(project(fs, u) - project(fs, w))
            rhs = np.linalg.norm(u - w)
            assert lhs <= rhs + 1e-12


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        project(FeasibleSet.symmetric_box(1.0, 3), np.zeros(2))
    with pytest.raises(ValueError):
        project(FeasibleSet.unit_ball(2), np.zeros(5))


def test_invalid_construction():
    with pytest.raises(ValueError):
        FeasibleSet.box(np.ones(2), -np.ones(2))
    with pytest.raises(ValueError):
        FeasibleSet.ball(np.zeros(2), 0.0)
    # NaN compares false both ways, so it must fail the checks, not pass them
    with pytest.raises(ValueError, match="ball radius must be > 0, got nan"):
        FeasibleSet.ball(np.zeros(2), math.nan)
    with pytest.raises(ValueError, match="box requires lo <= hi componentwise"):
        FeasibleSet.box([math.nan, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="box bounds must have matching shapes"):
        FeasibleSet.box(np.zeros(2), np.ones(3))


def test_batch_rows_project_like_single_points():
    rng = np.random.default_rng(2)
    for fs in random_sets(3):
        batch = rng.normal(scale=3.0, size=(6, 3))
        batch[0] = 0.01  # interior of every set, left untouched
        projected = project(fs, batch)
        for row, out in zip(batch, projected):
            np.testing.assert_array_equal(out, project(fs, row))
        np.testing.assert_array_equal(projected[0], batch[0])
        for r in range(len(batch)):  # a row's result does not depend on its batch
            np.testing.assert_array_equal(project(fs, batch[r : r + 1])[0], projected[r])
        np.testing.assert_array_equal(project(fs, projected), projected)
        assert all(contains(fs, p) for p in projected)


def test_batch_dimension_mismatch():
    with pytest.raises(ValueError):
        project(FeasibleSet.symmetric_box(1.0, 3), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        project(FeasibleSet.unit_ball(2), np.zeros((4, 5)))


# Property tests: fixed example sequence (derandomized) and no example
# database, so every run checks the same points.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
COORDINATE = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def sets_and_points(draw):
    """A box or a ball in R^n together with two points of R^n."""
    n = draw(st.integers(1, 6))
    vector = hnp.arrays(float, n, elements=COORDINATE)
    if draw(st.booleans()):
        a, b = draw(vector), draw(vector)
        feasible = FeasibleSet.box(np.minimum(a, b), np.maximum(a, b))
    else:
        radius = draw(st.floats(1e-3, 50.0))
        feasible = FeasibleSet.ball(draw(vector), radius)
    return feasible, draw(vector), draw(vector)


@PROPERTY
@given(sets_and_points())
def test_projection_is_idempotent(case):
    feasible, u, w = case
    p = project(feasible, u)
    np.testing.assert_array_equal(project(feasible, p), p)
    batch = project(feasible, np.stack([u, w]))
    np.testing.assert_array_equal(project(feasible, batch), batch)


@PROPERTY
@given(sets_and_points())
def test_projection_is_non_expansive(case):
    feasible, u, w = case
    lhs = np.linalg.norm(project(feasible, u) - project(feasible, w))
    rhs = np.linalg.norm(u - w)
    scale = 1.0 + max(np.abs(u).max(), np.abs(w).max())
    assert lhs <= rhs + 1e-12 * scale
