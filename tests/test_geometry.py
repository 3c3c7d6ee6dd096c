"""Rigid transforms and radius graphs, checked against loop oracles."""

import itertools

import numpy as np
import pytest

from faframe.errors import CutoffExceedsImageRange, FaframeError, NonFiniteInput, UnknownElement
from faframe.geometry import (
    E3,
    SE3,
    SO3,
    T3,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    apply_transform,
    build_radius_graph,
    pbc_edge_vector,
    random_transform,
)


def random_system(rng, n=None, periodic=False, scale=2.0):
    if n is None:
        n = int(rng.integers(3, 9))
    numbers = rng.integers(1, 40, size=n)
    if periodic:
        cell = np.diag(rng.uniform(8.0, 12.0, size=3)) + rng.uniform(-0.5, 0.5, size=(3, 3))
        frac = rng.uniform(0.0, 1.0, size=(n, 3))
        return AtomicSystem(frac @ cell, numbers, cell=cell, pbc=(True, True, True))
    return AtomicSystem(rng.standard_normal((n, 3)) * scale, numbers)


def brute_force_edges(system, cutoff, max_neighbors):
    """Triple-loop reference: atoms x atoms x all periodic offsets."""
    ranges = [(-1, 0, 1) if p else (0,) for p in system.pbc]
    pos = system.positions
    n = len(pos)
    cell = system.cell
    edges = []
    for dst in range(n):
        incoming = []
        for src in range(n):
            for offset in itertools.product(*ranges):
                if src == dst and offset == (0, 0, 0):
                    continue
                vec = pos[dst] - pos[src]
                if any(offset):
                    vec = vec + np.asarray(offset, dtype=float) @ cell
                d = float(np.linalg.norm(vec))
                if d < cutoff:
                    incoming.append((d, src, offset, vec))
        incoming.sort(key=lambda item: (item[0], item[1], item[2]))
        for d, src, offset, vec in incoming[:max_neighbors]:
            edges.append((src, dst, offset, d, vec))
    return edges


# ---------------------------------------------------------------- transforms


def test_identity_transform_is_noop():
    rng = np.random.default_rng(0)
    system = random_system(rng, periodic=True)
    out = apply_transform(system, EuclideanTransform(np.eye(3), np.zeros(3)))
    np.testing.assert_array_equal(out.positions, system.positions)
    np.testing.assert_array_equal(out.cell, system.cell)
    np.testing.assert_array_equal(out.atomic_numbers, system.atomic_numbers)
    assert out.pbc == system.pbc


def test_pure_translation_moves_positions_and_keeps_cell():
    rng = np.random.default_rng(1)
    system = random_system(rng, periodic=True)
    shift = np.array([1.5, -2.0, 0.25])
    out = apply_transform(system, EuclideanTransform(np.eye(3), shift))
    np.testing.assert_allclose(out.positions, system.positions + shift, atol=1e-12)
    np.testing.assert_array_equal(out.cell, system.cell)


def test_rigid_motion_rotates_cell_rows_and_never_translates_them():
    rng = np.random.default_rng(5)
    system = random_system(rng, periodic=True)
    for group in (E3, SE3, Z_AXIS_2D):
        for _ in range(5):
            g = random_transform(group, rng)
            out = apply_transform(system, g)
            np.testing.assert_array_equal(out.cell, system.cell @ g.rotation.T)
            # the same crystal: every edge is the old one turned by U
            a = build_radius_graph(system, cutoff=4.0, max_neighbors=10)
            b = build_radius_graph(out, cutoff=4.0, max_neighbors=10)
            assert a.edges == b.edges
            np.testing.assert_allclose(b.rel_vectors, a.rel_vectors @ g.rotation.T, atol=1e-9)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g1 = random_transform(E3, rng)
        g2 = random_transform(E3, rng)
        points = rng.standard_normal((6, 3))
        sequential = g1.apply_points(g2.apply_points(points))
        composed = g1.compose(g2)
        np.testing.assert_allclose(composed.apply_points(points), sequential, atol=1e-12)


def test_compose_on_systems():
    rng = np.random.default_rng(3)
    system = random_system(rng, periodic=True)
    g1 = random_transform(E3, rng)
    g2 = random_transform(E3, rng)
    twice = apply_transform(apply_transform(system, g2), g1)
    once = apply_transform(system, g1.compose(g2))
    np.testing.assert_allclose(twice.positions, once.positions, atol=1e-12)
    np.testing.assert_allclose(twice.cell, once.cell, atol=1e-12)


def test_inverse_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = random_transform(E3, rng)
        points = rng.standard_normal((4, 3))
        back = g.inverse().apply_points(g.apply_points(points))
        np.testing.assert_allclose(back, points, atol=1e-12)


def test_orthogonality_enforced():
    with pytest.raises(ValueError):
        EuclideanTransform(np.eye(3) * 2.0, np.zeros(3))


def test_group_properties_of_samples():
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = random_transform(SO3, rng)
        assert g.det == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_array_equal(g.translation, np.zeros(3))

        g = random_transform(SE3, rng)
        assert g.det == pytest.approx(1.0, abs=1e-10)

        g = random_transform(T3, rng)
        np.testing.assert_array_equal(g.rotation, np.eye(3))

        g = random_transform(Z_AXIS_2D, rng)
        # z axis fixed, rotation confined to the xy plane
        np.testing.assert_allclose(g.rotation[2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(g.rotation[:, 2], [0, 0, 1], atol=1e-12)
        assert g.det == pytest.approx(1.0, abs=1e-10)


def test_e3_determinant_balance():
    # Haar sampling over O(3) should split evenly between the two components.
    rng = np.random.default_rng(6)
    negative = sum(random_transform(E3, rng).det < 0 for _ in range(10_000))
    assert 4850 <= negative <= 5150


def test_translations_stay_in_range():
    rng = np.random.default_rng(7)
    for _ in range(500):
        g = random_transform(E3, rng)
        assert np.abs(g.translation).max() <= 10.0


# ---------------------------------------------------------------- pbc vector


def test_pbc_edge_vector_zero_offset_plain_difference():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 4.0])
    np.testing.assert_array_equal(pbc_edge_vector(a, b, np.zeros(3), None), a - b)


def test_pbc_edge_vector_cubic_cell():
    cell = np.diag([10.0, 10.0, 10.0])
    xi = np.array([1.0, 0.0, 0.0])
    xj = np.array([9.0, 0.0, 0.0])
    vec = pbc_edge_vector(xi, xj, np.array([1, 0, 0]), cell)
    np.testing.assert_allclose(vec, [2.0, 0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(2.0)


def test_pbc_edge_vector_antisymmetry():
    rng = np.random.default_rng(8)
    cell = np.diag([9.0, 10.0, 11.0]) + rng.uniform(-0.3, 0.3, (3, 3))
    for _ in range(20):
        xi, xj = rng.uniform(0, 9, (2, 3))
        offset = rng.integers(-1, 2, size=3)
        forward = pbc_edge_vector(xi, xj, offset, cell)
        backward = pbc_edge_vector(xj, xi, -offset, cell)
        np.testing.assert_allclose(forward, -backward, atol=1e-12)


def test_pbc_edge_vector_requires_cell_for_offsets():
    with pytest.raises(ValueError):
        pbc_edge_vector(np.zeros(3), np.ones(3), np.array([1, 0, 0]), None)


# --------------------------------------------------------------- radius graph


def test_two_atoms_within_cutoff():
    system = AtomicSystem(np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.array([6, 6]))
    graph = build_radius_graph(system, cutoff=5.0, max_neighbors=10)
    assert sorted(graph.edges) == [(0, 1, (0, 0, 0)), (1, 0, (0, 0, 0))]
    np.testing.assert_allclose(graph.distances, [3.0, 3.0])


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), 0.0])
def test_radius_graph_rejects_a_cutoff_that_is_not_positive_and_finite(cutoff):
    # nan would keep no edge at all, and silently.
    system = AtomicSystem(np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.array([6, 6]))
    with pytest.raises(ValueError, match="cutoff"):
        build_radius_graph(system, cutoff=cutoff, max_neighbors=10)


def test_two_atoms_outside_cutoff():
    system = AtomicSystem(np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.array([6, 6]))
    graph = build_radius_graph(system, cutoff=1.0, max_neighbors=10)
    assert graph.num_edges == 0


def test_periodic_pair_through_boundary():
    cell = np.diag([10.0, 10.0, 10.0])
    system = AtomicSystem(
        np.array([[1.0, 0, 0], [9.0, 0, 0]]), np.array([6, 6]),
        cell=cell, pbc=(True, True, True),
    )
    graph = build_radius_graph(system, cutoff=3.0, max_neighbors=10)
    assert graph.num_edges == 2
    assert all(offset != (0, 0, 0) for _, _, offset in graph.edges)
    np.testing.assert_allclose(graph.distances, [2.0, 2.0])


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for trial in range(40):
        periodic = trial % 2 == 0
        system = random_system(rng, n=int(rng.integers(2, 9)), periodic=periodic)
        cutoff = float(rng.uniform(2.0, 4.0))
        max_neighbors = int(rng.integers(2, 12))
        graph = build_radius_graph(system, cutoff, max_neighbors)
        expected = brute_force_edges(system, cutoff, max_neighbors)
        assert sorted(graph.edges) == sorted((s, d, o) for s, d, o, _, _ in expected)
        got = {e: dist for e, dist in zip(graph.edges, graph.distances)}
        for s, d, o, dist, vec in expected:
            assert got[(s, d, o)] == pytest.approx(dist, abs=1e-9)


def test_rel_vectors_match_endpoint_difference():
    rng = np.random.default_rng(10)
    system = random_system(rng, n=6, periodic=True)
    graph = build_radius_graph(system, cutoff=4.0, max_neighbors=20)
    for e in range(graph.num_edges):
        vec = pbc_edge_vector(
            system.positions[graph.dst[e]],
            system.positions[graph.src[e]],
            graph.offsets[e],
            system.cell,
        )
        np.testing.assert_allclose(graph.rel_vectors[e], vec, atol=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(graph.distances[e], abs=1e-12)


def test_max_neighbors_keeps_nearest():
    # star: neighbors at increasing distance from atom 0
    positions = np.array([
        [0.0, 0, 0], [1.0, 0, 0], [0, 1.5, 0], [0, 0, 2.0], [-2.5, 0, 0], [0, -3.0, 0],
    ])
    system = AtomicSystem(positions, np.full(6, 6))
    graph = build_radius_graph(system, cutoff=10.0, max_neighbors=3)
    into_center = [(s, d) for s, d, _ in graph.edges if d == 0]
    assert sorted(s for s, _ in into_center) == [1, 2, 3]


def test_max_neighbors_tie_breaks_by_source_index():
    # four sources all exactly 1 angstrom from the center
    positions = np.array([
        [0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
    ])
    system = AtomicSystem(positions, np.full(5, 6))
    graph = build_radius_graph(system, cutoff=1.5, max_neighbors=2)
    winners = sorted(s for s, d, _ in graph.edges if d == 0)
    assert winners == [1, 2]


def test_cutoff_beyond_image_range_raises():
    cell = np.diag([2.0, 2.0, 2.0])
    system = AtomicSystem(
        np.array([[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]]), np.array([1, 1]),
        cell=cell, pbc=(True, True, True),
    )
    with pytest.raises(CutoffExceedsImageRange):
        build_radius_graph(system, cutoff=3.5, max_neighbors=10)


def test_graph_invariant_under_isometry_aperiodic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        system = random_system(rng, periodic=False)
        g = random_transform(E3, rng)
        moved = apply_transform(system, g)
        a = build_radius_graph(system, cutoff=3.5, max_neighbors=8)
        b = build_radius_graph(moved, cutoff=3.5, max_neighbors=8)
        assert a.edges == b.edges
        np.testing.assert_allclose(a.distances, b.distances, atol=1e-9)
        np.testing.assert_allclose(b.rel_vectors, a.rel_vectors @ g.rotation.T, atol=1e-9)


def test_graph_invariant_under_rotation_periodic():
    # rotations and reflections only; motions with a translation are
    # compared in test_rigid_motion_rotates_cell_rows_and_never_translates_them
    rng = np.random.default_rng(12)
    for _ in range(20):
        system = random_system(rng, periodic=True)
        g = random_transform(E3, rng)
        g = EuclideanTransform(g.rotation, np.zeros(3))
        moved = apply_transform(system, g)
        a = build_radius_graph(system, cutoff=4.0, max_neighbors=10)
        b = build_radius_graph(moved, cutoff=4.0, max_neighbors=10)
        assert a.edges == b.edges
        np.testing.assert_allclose(a.distances, b.distances, atol=1e-9)
        np.testing.assert_allclose(b.rel_vectors, a.rel_vectors @ g.rotation.T, atol=1e-9)


# ------------------------------------------------------------------ validation


def test_atomic_system_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((2, 2)), np.array([1, 1]))
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((2, 3)), np.array([1]))
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((2, 3)), np.array([1, 0]))


def test_periodic_flags_require_cell():
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((2, 3)), np.array([1, 1]), pbc=(True, False, False))


def test_singular_cell_rejected():
    cell = np.zeros((3, 3))
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((2, 3)), np.array([1, 1]), cell=cell, pbc=(True, True, True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_positions_rejected(bad):
    positions = np.zeros((3, 3))
    positions[1, 2] = bad
    with pytest.raises(NonFiniteInput, match="positions"):
        AtomicSystem(positions, np.array([1, 6, 8]))


def test_non_finite_cell_rejected():
    # abs(det) of a NaN cell compares False against the singularity bound,
    # so only an explicit finiteness check catches it.
    cell = np.eye(3) * 10.0
    cell[0, 1] = np.nan
    for pbc in ((True, True, True), (False, False, False)):
        with pytest.raises(NonFiniteInput, match="cell"):
            AtomicSystem(np.zeros((2, 3)), np.array([1, 1]), cell=cell, pbc=pbc)


@pytest.mark.parametrize("numbers, named", [
    ([6.7], "6.7"),
    ([6.0, 1.5], "1.5"),
    ([np.nan], "nan"),
    ([True], "True"),
    ([0], "0"),
    ([6, -2], "-2"),
    (["C"], "C"),
])
def test_bad_atomic_numbers_rejected_not_truncated(numbers, named):
    with pytest.raises(UnknownElement, match=named) as err:
        AtomicSystem(np.zeros((len(numbers), 3)), numbers)
    assert isinstance(err.value, FaframeError)


def test_whole_float_atomic_numbers_accepted():
    system = AtomicSystem(np.zeros((2, 3)), np.array([6.0, 1.0]))
    assert system.atomic_numbers.dtype == np.int64
    np.testing.assert_array_equal(system.atomic_numbers, [6, 1])
