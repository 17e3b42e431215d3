"""Unit tests for repro.network.geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.geometry import euclidean_distance, pairwise_distances
from tests.oracles import convex_hull, cross


class TestEuclideanDistance:
    def test_axis_aligned(self):
        assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_zero_distance(self):
        assert euclidean_distance((1.5, -2.0), (1.5, -2.0)) == 0.0

    def test_symmetry(self):
        assert euclidean_distance((1, 2), (4, 6)) == euclidean_distance((4, 6), (1, 2))


class TestCross:
    def test_counter_clockwise_positive(self):
        assert cross((0, 0), (1, 0), (0, 1)) > 0

    def test_clockwise_negative(self):
        assert cross((0, 0), (0, 1), (1, 0)) < 0

    def test_collinear_zero(self):
        assert cross((0, 0), (1, 1), (2, 2)) == 0


class TestConvexHull:
    def test_square_with_interior_point(self):
        points = [(0, 0), (0, 1), (1, 0), (1, 1), (0.5, 0.5)]
        hull = convex_hull(points)
        assert set(hull) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_collinear_points_reduce_to_extremes(self):
        points = [(0, 0), (1, 0), (2, 0), (3, 0)]
        hull = convex_hull(points)
        assert set(hull) == {(0.0, 0.0), (3.0, 0.0)}

    def test_duplicates_tolerated(self):
        points = [(0, 0), (0, 0), (1, 0), (0, 1)]
        hull = convex_hull(points)
        assert set(hull) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_fewer_than_three_points(self):
        assert convex_hull([(2, 3)]) == [(2.0, 3.0)]
        assert convex_hull([(2, 3), (1, 1)]) == [(1.0, 1.0), (2.0, 3.0)]

    def test_counter_clockwise_orientation(self):
        points = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]
        hull = convex_hull(points)
        # Sum of cross products around the polygon must be positive (CCW).
        area2 = 0.0
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0

    def test_matches_scipy_qhull_vertices(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 10, size=(60, 2))
        ours = set(convex_hull([tuple(p) for p in points]))
        qhull = scipy_spatial.ConvexHull(points)
        theirs = {tuple(points[i]) for i in qhull.vertices}
        assert ours == theirs


class TestPairwiseDistances:
    def test_matches_manual_computation(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        matrix = pairwise_distances(positions)
        assert matrix[0, 1] == pytest.approx(5.0)
        assert matrix[1, 2] == pytest.approx(5.0)
        assert matrix[0, 2] == pytest.approx(10.0)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 5, size=(20, 2))
        matrix = pairwise_distances(positions)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 3)))


def einsum_distances(positions: np.ndarray) -> np.ndarray:
    """The reference formula: squared deltas summed over the coordinate axis."""
    deltas = positions[:, None, :] - positions[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas))


class TestPairwiseDistancesBits:
    @pytest.mark.parametrize("num_nodes", [0, 1, 2, 50, 300])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_positions(self, num_nodes, seed):
        rng = np.random.default_rng(seed)
        for positions in (
            rng.uniform(0.0, 50.0, size=(num_nodes, 2)),
            rng.normal(0.0, 3.0, size=(num_nodes, 2)),
        ):
            assert np.array_equal(pairwise_distances(positions), einsum_distances(positions))

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_points(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 10.0, size=(20, 2))
        positions = points[rng.integers(0, 20, size=120)]
        distances = pairwise_distances(positions)
        assert np.array_equal(distances, einsum_distances(positions))
        assert (distances == 0.0).sum() > positions.shape[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_coordinates_near_one_million(self, seed):
        rng = np.random.default_rng(seed)
        positions = 1e6 + rng.uniform(-5.0, 5.0, size=(200, 2))
        positions[::7] *= -1.0
        assert np.array_equal(pairwise_distances(positions), einsum_distances(positions))

    def test_integer_positions(self):
        positions = np.array([[0, 0], [3, 4], [6, 8]])
        expected = einsum_distances(positions.astype(float))
        assert np.array_equal(pairwise_distances(positions), expected)
