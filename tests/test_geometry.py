"""Rigid transforms and radius graphs, checked against loop oracles."""

import itertools
import warnings

import numpy as np
import pytest

from faframe import geometry
from faframe.errors import (
    CutoffExceedsImageRange,
    FaframeError,
    NonFiniteInput,
    ShapeMismatch,
    UnknownElement,
)
from faframe.geometry import (
    E3,
    SE3,
    SO3,
    T3,
    TRANSFORM_GROUPS,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    RadiusGraph,
    apply_transform,
    apply_transforms,
    build_radius_graph,
    build_radius_graphs,
    random_transform,
    random_transforms,
    with_det_sign,
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


def oracle_edges(system, cutoff):
    """Every edge within the cutoff, over every offset the cutoff can need.

    Along a periodic axis with plane spacing d, a pair within the cutoff
    needs |offset| <= ceil(cutoff / d) plus the spread of the atoms' whole-
    cell coordinates; one more is enumerated for margin. Returns
    {(src, dst, offset): (distance, vector)}.
    """
    ranges = [np.zeros(1, dtype=np.int64)] * 3
    shifts = np.zeros((1, 3))
    if system.is_periodic:
        inverse = np.linalg.inv(system.cell)
        whole = np.floor(system.positions @ inverse)
        spread = whole.max(axis=0) - whole.min(axis=0)
        spacing = 1.0 / np.linalg.norm(inverse, axis=0)
        ranges = [np.arange(-r, r + 1) if p else np.zeros(1, dtype=np.int64)
                  for r, p in zip((np.ceil(cutoff / spacing) + spread + 1).astype(int), system.pbc)]
    offsets = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 3)
    if system.is_periodic:
        shifts = offsets @ system.cell
    pos = system.positions
    vec = pos[:, None, None, :] - pos[None, :, None, :] + shifts  # [dst, src, offset]
    dist = np.linalg.norm(vec, axis=-1)
    within = dist < cutoff
    n = len(pos)
    within[np.arange(n), np.arange(n)] &= offsets.any(axis=1)
    return {
        (int(s), int(d), tuple(int(x) for x in offsets[k])): (dist[d, s, k], vec[d, s, k])
        for d, s, k in zip(*np.nonzero(within))
    }


def dense_radius_graph(system, cutoff, max_neighbors):
    """The dense builder that came before the binned search, kept as its reference.

    It scans all n x n pairs at each offset in {-1, 0, 1} per periodic axis
    and raises CutoffExceedsImageRange when an offset of magnitude 2 would
    still reach inside the cutoff.
    """
    positions = system.positions
    n = system.num_atoms
    periodic = system.is_periodic
    cell = system.cell if periodic else None

    if periodic:
        ranges = [range(-2, 3) if flag else (0,) for flag in system.pbc]
        offsets = np.array(list(itertools.product(*ranges)), dtype=np.int64)
        beyond = np.abs(offsets).max(axis=1) == 2
        inner = offsets[~beyond]
        outer = offsets[beyond]
    else:
        inner = np.zeros((1, 3), dtype=np.int64)
        outer = np.zeros((0, 3), dtype=np.int64)

    src_parts, dst_parts, off_parts, vec_parts, dist_parts = [], [], [], [], []
    dst_idx, src_idx = np.mgrid[0:n, 0:n]
    dst_idx = dst_idx.ravel()
    src_idx = src_idx.ravel()

    for offset in outer:
        shift = offset.astype(np.float64) @ cell
        diff = positions[:, None, :] - positions[None, :, :] + shift
        dist = np.linalg.norm(diff, axis=-1)
        if np.any(dist < cutoff):
            raise CutoffExceedsImageRange(f"cutoff {cutoff} reaches images beyond +/-1")

    for offset in inner:
        if periodic:
            shift = offset.astype(np.float64) @ cell
        else:
            shift = np.zeros(3)
        diff = positions[:, None, :] - positions[None, :, :] + shift
        dist = np.linalg.norm(diff, axis=-1)
        hit = dist < cutoff
        if not offset.any():
            np.fill_diagonal(hit, False)
        flat = hit.ravel()
        if not flat.any():
            continue
        keep = np.flatnonzero(flat)
        dst_parts.append(dst_idx[keep])
        src_parts.append(src_idx[keep])
        off_parts.append(np.broadcast_to(offset, (keep.size, 3)))
        vec_parts.append(diff.reshape(-1, 3)[keep])
        dist_parts.append(dist.ravel()[keep])

    if dst_parts:
        dst_all = np.concatenate(dst_parts)
        src_all = np.concatenate(src_parts)
        off_all = np.concatenate(off_parts)
        vec_all = np.concatenate(vec_parts)
        dist_all = np.concatenate(dist_parts)
    else:
        dst_all = np.zeros(0, dtype=np.int64)
        src_all = np.zeros(0, dtype=np.int64)
        off_all = np.zeros((0, 3), dtype=np.int64)
        vec_all = np.zeros((0, 3))
        dist_all = np.zeros(0)

    order = np.lexsort((off_all[:, 2], off_all[:, 1], off_all[:, 0], src_all, dist_all, dst_all))
    dst_all = dst_all[order]
    src_all = src_all[order]
    off_all = off_all[order]
    vec_all = vec_all[order]
    dist_all = dist_all[order]

    if dst_all.size:
        boundaries = np.flatnonzero(np.diff(dst_all)) + 1
        starts = np.concatenate(([0], boundaries))
        block_start = np.repeat(starts, np.diff(np.concatenate((starts, [dst_all.size]))))
        rank = np.arange(dst_all.size) - block_start
        keep = rank < max_neighbors
        dst_all = dst_all[keep]
        src_all = src_all[keep]
        off_all = off_all[keep]
        vec_all = vec_all[keep]
        dist_all = dist_all[keep]

    return RadiusGraph(
        src=src_all,
        dst=dst_all,
        offsets=np.ascontiguousarray(off_all),
        distances=dist_all,
        rel_vectors=vec_all,
        cutoff=float(cutoff),
        max_neighbors=int(max_neighbors),
        num_nodes=n,
    )


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


def test_compose_on_systems():
    rng = np.random.default_rng(3)
    system = random_system(rng, periodic=True)
    g1 = random_transform(E3, rng)
    g2 = random_transform(E3, rng)
    twice = apply_transform(apply_transform(system, g2), g1)
    once = apply_transform(system, g1.compose(g2))
    np.testing.assert_allclose(twice.positions, once.positions, atol=1e-12)
    np.testing.assert_allclose(twice.cell, once.cell, atol=1e-12)


def test_orthogonality_enforced():
    with pytest.raises(ValueError):
        EuclideanTransform(np.eye(3) * 2.0, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_rotation_that_is_not_finite_is_rejected(bad):
    # NaN fails every comparison, so no tolerance check alone can catch it.
    with pytest.raises(ValueError, match="NaN or inf"):
        EuclideanTransform(np.full((3, 3), bad), np.zeros(3))
    stack = np.stack([np.eye(3)] * 3)
    stack[1, 2, 0] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        geometry.check_orthogonal(stack)


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


def test_with_det_sign_flips_column_zero_only_when_the_sign_is_wrong():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rotation = random_transform(E3, rng).rotation
        for sign in (1.0, -1.0):
            out = with_det_sign(rotation, sign)
            assert np.linalg.det(out) * sign > 0
            if np.linalg.det(rotation) * sign > 0:
                assert out is rotation
            else:
                np.testing.assert_array_equal(out[:, 0], -rotation[:, 0])
                np.testing.assert_array_equal(out[:, 1:], rotation[:, 1:])


def test_with_det_sign_on_a_stack_flips_each_wrong_matrix_only():
    rotations, _ = random_transforms(E3, np.random.default_rng(9), 40)
    for sign in (1.0, -1.0):
        out = with_det_sign(rotations, sign)
        for rotation, flipped in zip(rotations, out):
            assert flipped.tobytes() == with_det_sign(rotation, sign).tobytes()
    proper = with_det_sign(rotations, 1.0)
    assert with_det_sign(proper, 1.0) is proper


@pytest.mark.parametrize("group", TRANSFORM_GROUPS)
def test_stacked_draw_is_one_motion_draws_bit_for_bit(group):
    stacked_rng, one_rng = np.random.default_rng(31), np.random.default_rng(31)
    rotations, translations = random_transforms(group, stacked_rng, 25)
    assert rotations.shape == (25, 3, 3) and translations.shape == (25, 3)
    for rotation, translation in zip(rotations, translations):
        g = random_transform(group, one_rng)
        assert rotation.tobytes() == g.rotation.tobytes()
        assert translation.tobytes() == g.translation.tobytes()
    assert stacked_rng.bit_generator.state == one_rng.bit_generator.state


def test_empty_stack_draws_nothing_and_bad_counts_raise():
    rng = np.random.default_rng(32)
    state = rng.bit_generator.state
    for group in TRANSFORM_GROUPS:
        rotations, translations = random_transforms(group, rng, 0)
        assert rotations.shape == (0, 3, 3) and translations.shape == (0, 3)
    assert rng.bit_generator.state == state
    for count in (-1, 2.0, True):
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            random_transforms(E3, rng, count)


@pytest.mark.parametrize("periodic", [False, True])
def test_stacked_move_is_one_motion_moves_bit_for_bit(periodic):
    rng = np.random.default_rng(33)
    system = random_system(rng, n=23, periodic=periodic)
    rotations, translations = random_transforms(E3, rng, 12)
    moved = apply_transforms(system, rotations, translations)
    assert len(moved) == 12
    for copy, rotation, translation in zip(moved, rotations, translations):
        assert isinstance(copy, AtomicSystem) and copy.pbc == system.pbc
        one = apply_transform(system, EuclideanTransform(rotation, translation))
        expected = system.positions @ rotation.T + translation
        assert copy.positions.tobytes() == one.positions.tobytes() == expected.tobytes()
        if periodic:  # the cell turns with the atoms and is never translated
            expected_cell = system.cell @ rotation.T
            assert copy.cell.tobytes() == one.cell.tobytes() == expected_cell.tobytes()
        else:
            assert copy.cell is None
    assert apply_transforms(system, rotations[:0], translations[:0]) == []


@pytest.mark.parametrize("periodic", [False, True])
def test_stacked_move_that_overflows_to_inf_raises(periodic):
    # Each copy shares the source's validated fields; the moved stack is still
    # checked for values the product pushed past the float range.
    big = 1.7e308
    cell = np.array([[big, big, 0.0], [0.0, 1e-9, 0.0], [0.0, 0.0, 1e-9]]) if periodic else None
    system = AtomicSystem([[big, big, 0.0], [0.0, 0.0, 0.0]], [6, 8])
    turn = np.array([[np.sqrt(0.5), np.sqrt(0.5), 0.0], [-np.sqrt(0.5), np.sqrt(0.5), 0.0],
                     [0.0, 0.0, 1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteInput, match="positions"):
            apply_transforms(system, np.stack([np.eye(3), turn]), np.zeros((2, 3)))
        with pytest.raises(NonFiniteInput, match="positions"):
            apply_transforms(system, np.eye(3)[None], np.array([[big, 0.0, 0.0]]))
        if periodic:
            crystal = AtomicSystem([[0.0, 0.0, 0.0]], [6], cell=cell, pbc=(True, False, False))
            with pytest.raises(NonFiniteInput, match="cell"):
                apply_transforms(crystal, np.stack([np.eye(3), turn.T]), np.zeros((2, 3)))


def test_stacked_move_rejects_bad_stacks():
    system = random_system(np.random.default_rng(34))
    with pytest.raises(ShapeMismatch, match="motions need"):
        apply_transforms(system, np.eye(3), np.zeros(3))
    with pytest.raises(ShapeMismatch, match="motions need"):
        apply_transforms(system, np.eye(3)[None], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="not orthogonal"):
        apply_transforms(system, 2.0 * np.eye(3)[None], np.zeros((1, 3)))


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


@pytest.mark.parametrize("max_neighbors", [2.5, 3.0, True, False, 0, -1, "4"])
def test_radius_graph_rejects_a_max_neighbors_that_is_not_a_positive_integer(max_neighbors):
    # 2.5 used to keep three edges per node and record 2; True passed as 1.
    system = AtomicSystem(np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.array([6, 6]))
    with pytest.raises(ValueError, match="max_neighbors"):
        build_radius_graph(system, cutoff=5.0, max_neighbors=max_neighbors)


def test_radius_graph_records_a_numpy_integer_max_neighbors_as_int():
    system = AtomicSystem(np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.array([6, 6]))
    graph = build_radius_graph(system, cutoff=5.0, max_neighbors=np.int64(1))
    assert type(graph.max_neighbors) is int and graph.max_neighbors == 1
    assert graph.num_edges == 2


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
        vec = (system.positions[graph.dst[e]] - system.positions[graph.src[e]]
               + graph.offsets[e] @ system.cell)
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


def _assert_matches_oracle(system, cutoff):
    graph = build_radius_graph(system, cutoff, max_neighbors=100_000)
    expected = oracle_edges(system, cutoff)
    assert sorted(graph.edges) == sorted(expected)
    for edge, dist, vec in zip(graph.edges, graph.distances, graph.rel_vectors):
        assert abs(dist - expected[edge][0]) <= 1e-9
        assert np.abs(vec - expected[edge][1]).max() <= 1e-9
    return graph


def test_cutoff_beyond_one_cell_matches_an_oracle_of_every_needed_image():
    # This 2 A cell at a 3.5 A cutoff used to raise CutoffExceedsImageRange.
    cell = np.diag([2.0, 2.0, 2.0])
    system = AtomicSystem(
        np.array([[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]]), np.array([1, 1]),
        cell=cell, pbc=(True, True, True),
    )
    graph = _assert_matches_oracle(system, 3.5)
    assert np.abs(graph.offsets).max() == 2

    # Narrow skewed cells, atoms stored up to two cells outside, every
    # combination of periodic axes, single atoms included.
    rng = np.random.default_rng(13)
    for pbc in itertools.product((False, True), repeat=3):
        for _ in range(6):
            n = int(rng.integers(1, 5))
            cell = np.diag(rng.uniform(1.5, 5.0, 3)) + rng.uniform(-0.4, 0.4, (3, 3))
            frac = rng.uniform(-1.5, 2.5, (n, 3))
            system = AtomicSystem(frac @ cell, np.full(n, 6), cell=cell, pbc=pbc)
            _assert_matches_oracle(system, float(rng.uniform(2.0, 5.0)))


def test_moving_atoms_by_lattice_vectors_keeps_the_graph():
    # The same crystal with atoms stored whole cells away. The dense builder
    # lost edges here without an error: moving atom 0 by 3 * cell[0] took
    # this graph from 44 edges to 36.
    rng = np.random.default_rng(0)
    cell = np.diag([9.0, 9.5, 10.0])
    positions = rng.uniform(0.0, 1.0, (12, 3)) @ cell
    numbers = np.full(12, 6)
    reference = build_radius_graph(
        AtomicSystem(positions, numbers, cell=cell, pbc=(True, True, True)), 4.0, 100)
    assert reference.num_edges == 44
    moves = [np.zeros((12, 3), dtype=int)] + [rng.integers(-3, 4, (12, 3)) for _ in range(20)]
    moves[0][0] = (3, 0, 0)
    for k in moves:
        moved = AtomicSystem(positions + k @ cell, numbers, cell=cell, pbc=(True, True, True))
        graph = build_radius_graph(moved, 4.0, 100)
        assert graph.num_edges == reference.num_edges
        np.testing.assert_allclose(np.sort(graph.distances), np.sort(reference.distances),
                                   rtol=0, atol=1e-9)


def test_matches_the_dense_reference_bit_for_bit():
    # Wherever the dense builder returns a graph, the binned one returns the
    # same arrays, byte for byte: molecules, wrapped and partly periodic
    # crystals, atoms just outside the cell, and lattice sites whose exact
    # distance ties the order must break by source index and offset.
    rng = np.random.default_rng(14)
    compared = capped = tied = 0
    for trial in range(150):
        n = int(rng.integers(1, 25))
        family = trial % 5
        if family == 0:
            system = AtomicSystem(rng.standard_normal((n, 3)) * rng.uniform(0.5, 4.0),
                                  rng.integers(1, 9, n))
        else:
            cell = np.diag(rng.uniform(6.0, 12.0, 3)) + rng.uniform(-1.0, 1.0, (3, 3))
            frac = rng.uniform(0.0, 1.0, (n, 3))
            pbc = (True, True, True)
            if family == 2:
                pbc = tuple(bool(flag) for flag in rng.integers(0, 2, 3))
                pbc = pbc if any(pbc) else (False, True, False)
            if family == 3:
                frac = rng.uniform(-0.1, 1.1, (n, 3))
            if family == 4:
                cell = np.diag(np.full(3, rng.uniform(6.0, 10.0)))
                frac = rng.integers(0, 4, (n, 3)) / 4.0
            system = AtomicSystem(frac @ cell, rng.integers(1, 9, n), cell=cell, pbc=pbc)
        cutoff = float(rng.uniform(1.5, 5.5))
        max_neighbors = int(rng.integers(1, 30))
        try:
            expected = dense_radius_graph(system, cutoff, max_neighbors)
        except CutoffExceedsImageRange:
            continue
        graph = build_radius_graph(system, cutoff, max_neighbors)
        for name in ("src", "dst", "offsets", "distances", "rel_vectors"):
            got, want = getattr(graph, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert (graph.cutoff, graph.max_neighbors, graph.num_nodes) == (
            expected.cutoff, expected.max_neighbors, expected.num_nodes)
        compared += 1
        full = dense_radius_graph(system, cutoff, 100_000)
        capped += full.num_edges > expected.num_edges
        tied += any(np.any(np.diff(full.distances[full.dst == d]) == 0) for d in range(n))
    assert compared >= 120 and capped >= 20 and tied >= 10, (compared, capped, tied)

    # Crystals of the crystal_graph benchmark's density (0.048 atoms per cubic
    # angstrom) and cutoff: bins half a cutoff wide that hold several atoms
    # each, reached two bins away, in skewed cells with atoms stored outside
    # the cell and some axes aperiodic.
    for trial in range(6):
        n = (64, 128, 256)[trial % 3]
        edge = (n / 0.048) ** (1.0 / 3.0)
        cell = np.diag(edge * rng.uniform(0.9, 1.1, 3)) + rng.uniform(-1.5, 1.5, (3, 3))
        frac = rng.uniform(-0.1, 1.1, (n, 3))
        pbc = (True, True, True) if trial < 3 else ((True, False, True), (False, True, True),
                                                   (True, True, False))[trial - 3]
        system = AtomicSystem(frac @ cell, rng.integers(1, 9, n), cell=cell, pbc=pbc)
        max_neighbors = (40, 12)[trial % 2]
        expected = dense_radius_graph(system, 6.0, max_neighbors)
        graph = build_radius_graph(system, 6.0, max_neighbors)
        assert expected.num_edges > 10 * n
        for name in ("src", "dst", "offsets", "distances", "rel_vectors"):
            got, want = getattr(graph, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_batched_graphs_equal_graphs_built_one_at_a_time(mixed_batch):
    # One search over a batch's molecules, each crystal alone: every graph is
    # byte-equal to its own one-system build, in input order.
    rng = np.random.default_rng(33)
    systems_seen = capped = periodic = 0
    for _ in range(60):
        systems = mixed_batch(rng)
        cutoff = float(rng.uniform(1.5, 6.0))
        max_neighbors = int(rng.integers(1, 30))
        graphs = build_radius_graphs(systems, cutoff, max_neighbors)
        assert len(graphs) == len(systems)
        for system, graph in zip(systems, graphs):
            alone = build_radius_graph(system, cutoff, max_neighbors)
            for name in ("src", "dst", "offsets", "distances", "rel_vectors"):
                got, want = getattr(graph, name), getattr(alone, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
            assert (graph.cutoff, graph.max_neighbors, graph.num_nodes) == (
                alone.cutoff, alone.max_neighbors, alone.num_nodes)
            systems_seen += 1
            capped += int(np.bincount(graph.dst, minlength=1).max(initial=0) == max_neighbors)
            periodic += system.is_periodic
    assert systems_seen >= 200 and capped >= 30 and periodic >= 50, (systems_seen, capped, periodic)


@pytest.mark.parametrize("spread", [1e8, 1e12, 1e20])
def test_molecules_spread_far_apart_keep_every_edge(spread):
    # Clusters of atoms this far apart need bin coordinates past what int64
    # bin ids hold; their empty stretches are closed up first, and no step of
    # the search wraps or overflows.
    rng = np.random.default_rng(int(np.log10(spread)))
    clusters = [centre + rng.uniform(-2.0, 2.0, (5, 3))
                for centre in rng.uniform(-1.0, 1.0, (4, 3)) * spread]
    systems = [AtomicSystem(np.concatenate(clusters), np.full(20, 6)),
               AtomicSystem(clusters[0], np.full(5, 6)),
               AtomicSystem(clusters[1] + [0.0, 0.0, spread], np.full(5, 8))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graphs = build_radius_graphs(systems, 3.0, 10)
    for system, graph in zip(systems, graphs):
        expected = brute_force_edges(system, 3.0, 10)
        assert graph.edges == [(s, d, o) for s, d, o, _, _ in expected]
        assert graph.num_edges > 0


def test_a_slab_spread_far_along_its_aperiodic_axis_keeps_every_edge():
    rng = np.random.default_rng(17)
    cell = np.diag([8.0, 9.0, 10.0]) + rng.uniform(-0.5, 0.5, (3, 3))
    frac = rng.uniform(0.0, 1.0, (24, 3))
    frac[:, 2] = np.repeat([0.0, 1e15, -3e15], 8) + rng.uniform(0.0, 0.4, 24)
    system = AtomicSystem(frac @ cell, np.full(24, 6), cell=cell, pbc=(True, True, False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = build_radius_graph(system, 3.0, 30)
    expected = brute_force_edges(system, 3.0, 30)
    assert graph.edges == [(s, d, o) for s, d, o, _, _ in expected]


def test_closing_empty_stretches_keeps_every_step():
    # On the closed axes, coordinates within reach of each other keep their
    # distance and all others stay out of reach, so every step finds the same
    # atoms; each system spans at most reach + 1 bins per atom.
    rng = np.random.default_rng(35)
    for _ in range(40):
        counts = rng.integers(1, 12, int(rng.integers(1, 5)))
        firsts = np.concatenate(([0], counts.cumsum()))
        cells = np.floor(rng.standard_normal((firsts[-1], 3)) * 10.0 ** rng.integers(0, 18, 3))
        axes = rng.permutation([True, *rng.integers(0, 2, 2).astype(bool)])
        reach = rng.integers(1, 3, 3)
        closed = cells.copy()
        geometry._close_gaps(closed, np.arange(len(counts)).repeat(counts), axes, reach)
        assert closed[:, ~axes].tobytes() == cells[:, ~axes].tobytes()
        for a, b in zip(firsts[:-1], firsts[1:]):
            before, after = cells[a:b, axes], closed[a:b, axes]
            assert (np.ptp(after, axis=0) <= (reach[axes] + 1) * (b - a - 1)).all()
            apart = np.abs(before[:, None] - before[None])
            near = apart <= reach[axes]
            moved = np.abs(after[:, None] - after[None])
            assert (moved[near] == apart[near]).all()
            assert (moved > reach[axes])[~near].all()


def test_bins_past_int64_or_the_float_range_raise(mixed_batch, monkeypatch):
    # At a 0.5 A cutoff, coordinates near 1e308 A have bin coordinates past the
    # float range, on an aperiodic and on a periodic axis.
    cell = np.diag([2.0, 2.0, 2.0])
    far = [AtomicSystem([[1.7e308, 0.0, 0.0], [1.7e308, 0.1, 0.0], [0.0, 0.0, 0.0]], [6, 6, 6]),
           AtomicSystem([[0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]], [6, 6]),
           AtomicSystem([[1.7e308, 0.0, 0.0], [0.0, 0.0, 0.0]], [6, 6], cell=cell,
                        pbc=(True, False, False))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for system in far:
            with pytest.raises(ValueError, match="int64"):
                build_radius_graph(system, 0.5, 8)
    monkeypatch.setattr(geometry, "MAX_BIN_IDS", 1.0)
    with pytest.raises(ValueError, match="int64"):
        build_radius_graphs(mixed_batch(np.random.default_rng(35)), 3.0, 8)


def test_empty_batch_has_no_graphs():
    assert build_radius_graphs([], 4.0, 8) == []


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
    ([6, 999], "999"),
    ([119.0], "119.0"),
])
def test_bad_atomic_numbers_rejected_not_truncated(numbers, named):
    with pytest.raises(UnknownElement, match=named) as err:
        AtomicSystem(np.zeros((len(numbers), 3)), numbers)
    assert isinstance(err.value, FaframeError)


@pytest.mark.parametrize("kwargs, error, named", [
    ({"pbc": True}, ShapeMismatch, "three flags"),
    ({"pbc": (True, False)}, ShapeMismatch, "three flags"),
    ({"positions": [["0", "x", "1"], ["1", "2", "3"]]}, NonFiniteInput, "positions"),
    ({"cell": [["a", "b", "c"]] * 3}, NonFiniteInput, "cell"),
    ({"positions": [[0.0, 0.0, 0.0], [1.0, 2.0]]}, ShapeMismatch, "positions"),
    ({"cell": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]}, ShapeMismatch, "cell"),
    ({"atomic_numbers": [[6], [6, 1]]}, ShapeMismatch, "atomic_numbers"),
    ({"positions": np.zeros((2, 2))}, ShapeMismatch, "positions"),
    ({"pbc": ("F", "F", "F")}, ShapeMismatch, "pbc flag 'F'"),
    ({"pbc": (True, False, 1)}, ShapeMismatch, "pbc flag 1"),
    ({"pbc": "TTT"}, ShapeMismatch, "pbc flag 'T'"),
])
def test_malformed_system_input_is_a_package_error(kwargs, error, named):
    # Each used to escape as a bare TypeError or as numpy's own ValueError;
    # the pbc flags that are not bools used to pass, as bool("F") is True.
    arguments = {"positions": np.zeros((2, 3)), "atomic_numbers": [6, 1], **kwargs}
    with pytest.raises(error, match=named) as err:
        AtomicSystem(**arguments)
    assert isinstance(err.value, FaframeError) and isinstance(err.value, ValueError)


def test_numpy_bool_pbc_flags_are_stored_as_bools():
    system = AtomicSystem(np.zeros((1, 3)), [1], cell=5.0 * np.eye(3),
                          pbc=np.array([True, False, True]))
    assert system.pbc == (True, False, True)
    assert all(type(flag) is bool for flag in system.pbc)


def test_whole_float_atomic_numbers_accepted():
    system = AtomicSystem(np.zeros((2, 3)), np.array([6.0, 1.0]))
    assert system.atomic_numbers.dtype == np.int64
    np.testing.assert_array_equal(system.atomic_numbers, [6, 1])
