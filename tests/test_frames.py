"""PCA frames: construction, canonicalization, and the view plan."""

import numpy as np
import pytest

from faframe.errors import NonFiniteInput
from faframe.geometry import (
    E3,
    SE3,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    apply_transform,
    random_transform,
)
from faframe.frames import (
    FA_MODES,
    canonical_views,
    canonicalize,
    compute_frame,
    compute_frames,
    plan_views,
)
from faframe import frames

AXIS_ALIGNED = AtomicSystem(
    np.array([
        [1.0, 0, 0], [-1.0, 0, 0],
        [0, 0.5, 0], [0, -0.5, 0],
        [0, 0, 0.25], [0, 0, -0.25],
    ]),
    np.full(6, 6),
)


def random_system(rng, n=None):
    if n is None:
        n = int(rng.integers(3, 12))
    return AtomicSystem(rng.standard_normal((n, 3)) * 2.0, rng.integers(1, 30, size=n))


def view_multiset(system, group):
    """Canonical positions over all frame elements, rounded for set matching."""
    frame = compute_frame(system, group)
    views = [np.round(canonicalize(system, el).system.positions, 8) for el in frame.elements]
    return sorted(tuple(v.ravel()) for v in views)


# ------------------------------------------------------------------- frames


def test_axis_aligned_eigenvalues_and_identity_element():
    frame = compute_frame(AXIS_ALIGNED, E3)
    np.testing.assert_allclose(frame.eigenvalues, [2.0, 0.5, 0.125], atol=1e-12)
    np.testing.assert_allclose(frame.translation, np.zeros(3), atol=1e-12)
    assert not frame.degenerate
    assert len(frame.elements) == 8
    # sign canonicalization picks the +axis base vectors, so the identity
    # rotation must be among the enumerated elements
    assert any(np.allclose(el.rotation, np.eye(3), atol=1e-12) for el in frame.elements)


def test_rotated_system_rotates_eigenvectors():
    theta = np.deg2rad(30.0)
    rot = np.array([
        [np.cos(theta), -np.sin(theta), 0],
        [np.sin(theta), np.cos(theta), 0],
        [0, 0, 1.0],
    ])
    rotated = AtomicSystem(AXIS_ALIGNED.positions @ rot.T, AXIS_ALIGNED.atomic_numbers)
    frame = compute_frame(rotated, E3)
    np.testing.assert_allclose(frame.eigenvalues, [2.0, 0.5, 0.125], atol=1e-10)

    # independent oracle: eigendecompose the rotated covariance directly
    centered = rotated.positions - rotated.positions.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered)
    order = np.argsort(eigvals)[::-1]
    eigvecs = eigvecs[:, order]
    for k in range(3):
        expected = rot @ np.eye(3)[:, k]
        dot = abs(float(eigvecs[:, k] @ expected))
        assert dot == pytest.approx(1.0, abs=1e-10)


def test_cardinality_per_group():
    rng = np.random.default_rng(0)
    for _ in range(30):
        system = random_system(rng)
        assert len(compute_frame(system, E3).elements) == 8
        assert len(compute_frame(system, SE3).elements) == 4
        assert len(compute_frame(system, Z_AXIS_2D).elements) == 2


def test_se3_elements_are_proper_rotations_and_subset_of_e3():
    rng = np.random.default_rng(1)
    system = random_system(rng)
    e3 = compute_frame(system, E3)
    se3 = compute_frame(system, SE3)
    e3_rots = [el.rotation for el in e3.elements]
    for el in se3.elements:
        assert np.linalg.det(el.rotation) == pytest.approx(1.0, abs=1e-10)
        assert any(np.allclose(el.rotation, r, atol=1e-12) for r in e3_rots)


def test_z_axis_group_fixes_z():
    rng = np.random.default_rng(2)
    system = random_system(rng)
    frame = compute_frame(system, Z_AXIS_2D)
    assert frame.eigenvalues[2] == 0.0
    for el in frame.elements:
        np.testing.assert_allclose(el.rotation[:, 2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(el.rotation[2], [0, 0, 1], atol=1e-12)
        assert np.linalg.det(el.rotation) == pytest.approx(1.0, abs=1e-10)


def test_elements_share_translation_and_axes_up_to_sign():
    rng = np.random.default_rng(3)
    system = random_system(rng)
    frame = compute_frame(system, E3)
    base = frame.elements[0].rotation
    for el in frame.elements:
        np.testing.assert_allclose(el.translation, frame.translation, atol=1e-12)
        signs = base.T @ el.rotation
        np.testing.assert_allclose(np.abs(np.diag(signs)), np.ones(3), atol=1e-10)
        np.testing.assert_allclose(signs - np.diag(np.diag(signs)), 0, atol=1e-10)


def test_sign_combinations_all_distinct():
    rng = np.random.default_rng(4)
    system = random_system(rng)
    frame = compute_frame(system, E3)
    seen = {tuple(np.sign(np.round(el.rotation[0] @ frame.elements[0].rotation.T @ el.rotation, 6)).astype(int).tolist()) for el in frame.elements}
    # 8 distinct matrices
    mats = {el.rotation.tobytes() for el in frame.elements}
    assert len(mats) == 8


# ------------------------------------------------------------- equivariance


def test_frame_equivariance_as_sets():
    rng = np.random.default_rng(5)
    for _ in range(50):
        system = random_system(rng)
        g = random_transform(E3, rng)
        moved = apply_transform(system, g)
        original = compute_frame(system, E3)
        transformed = compute_frame(moved, E3)
        expected = [g.compose(el) for el in original.elements]
        unmatched = list(transformed.elements)
        for exp in expected:
            hit = None
            for i, el in enumerate(unmatched):
                if (np.abs(el.rotation - exp.rotation).max() < 1e-8
                        and np.abs(el.translation - exp.translation).max() < 1e-8):
                    hit = i
                    break
            assert hit is not None, "transformed frame is missing an expected element"
            unmatched.pop(hit)
        assert not unmatched


def test_translation_only_keeps_rotations():
    rng = np.random.default_rng(6)
    system = random_system(rng)
    shift = np.array([3.0, -1.0, 0.5])
    from faframe.geometry import EuclideanTransform
    moved = apply_transform(system, EuclideanTransform(np.eye(3), shift))
    a = compute_frame(system, E3)
    b = compute_frame(moved, E3)
    np.testing.assert_allclose(b.translation, a.translation + shift, atol=1e-10)
    # eigenvectors are recomputed from a shifted centroid, so allow fp noise
    for el in a.elements:
        assert any(
            np.abs(el.rotation - other.rotation).max() < 1e-9 for other in b.elements
        )


def test_eigenvalues_invariant_under_transform():
    rng = np.random.default_rng(7)
    for _ in range(30):
        system = random_system(rng)
        g = random_transform(E3, rng)
        a = compute_frame(system, E3).eigenvalues
        b = compute_frame(apply_transform(system, g), E3).eigenvalues
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-12)


def test_canonical_views_coincide_for_transformed_input():
    rng = np.random.default_rng(8)
    for _ in range(30):
        system = random_system(rng)
        g = random_transform(E3, rng)
        moved = apply_transform(system, g)
        assert view_multiset(system, E3) == view_multiset(moved, E3)


def test_canonical_view_centered_and_diagonal_covariance():
    rng = np.random.default_rng(9)
    system = random_system(rng)
    frame = compute_frame(system, E3)
    for el in frame.elements:
        view = canonicalize(system, el).system
        np.testing.assert_allclose(view.positions.mean(axis=0), 0, atol=1e-9)
        centered = view.positions
        cov = centered.T @ centered
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() / frame.eigenvalues[0] < 1e-7


def test_canonicalize_rotates_cell_rows_and_never_translates_them():
    # Uncentred fractional positions: the centroid is far from the origin,
    # so a translated cell would show.
    rng = np.random.default_rng(10)
    cell = np.diag([10.0, 11.0, 12.0]) + rng.uniform(-0.5, 0.5, (3, 3))
    system = AtomicSystem(
        rng.uniform(0, 1, (5, 3)) @ cell, np.full(5, 6), cell=cell, pbc=(True, True, True),
    )
    frame = compute_frame(system, E3)
    assert np.abs(frame.translation).min() > 1.0
    for el in frame.elements:
        view = canonicalize(system, el).system
        np.testing.assert_array_equal(view.cell, cell @ el.rotation)
        np.testing.assert_allclose(abs(np.linalg.det(view.cell)), abs(np.linalg.det(cell)),
                                   rtol=1e-12)
    # translating the atoms leaves the crystal, and so its canonical cells, alone
    moved = AtomicSystem(system.positions + [3.0, -7.0, 1.5], system.atomic_numbers,
                         cell=cell, pbc=system.pbc)
    for a, b in zip(compute_frame(system, E3).elements, compute_frame(moved, E3).elements):
        np.testing.assert_allclose(canonicalize(moved, b).system.cell,
                                   canonicalize(system, a).system.cell, atol=1e-9)


@pytest.mark.parametrize("group", [E3, SE3, Z_AXIS_2D])
def test_stacked_views_are_the_one_rotation_views_bit_for_bit(mixed_batch, group):
    # The CLI turns a frame's whole stack, or one sampled rotation of it;
    # each view's bits must not depend on which.
    rng = np.random.default_rng(38)
    for _ in range(10):
        batch = mixed_batch(rng)
        for system, frame in zip(batch, compute_frames(batch, group)):
            positions, cells = canonical_views(system, frame.translation, frame.rotations)
            assert positions.shape == (len(frame.rotations), len(system.positions), 3)
            assert (cells is None) == (system.cell is None)
            for k, rotation in enumerate(frame.rotations):
                one = (system.positions - frame.translation) @ rotation
                assert positions[k].tobytes() == one.tobytes()
                if cells is not None:
                    assert cells[k].tobytes() == (system.cell @ rotation).tobytes()
                view = canonicalize(system, EuclideanTransform(rotation, frame.translation))
                assert view.system.positions.tobytes() == one.tobytes()


# ---------------------------------------------------------------- degeneracy


def _nested_loop_rotations(system, group):
    """Element rotations built as a nested loop over column signs (s1 slowest)."""
    centered = system.positions - system.positions.mean(axis=0)
    planar = group == Z_AXIS_2D
    if planar:
        centered = centered[:, :2]
    vectors = np.linalg.eigh(centered.T @ centered)[1][:, ::-1]
    axes = []
    for k in range(vectors.shape[1]):
        axis = vectors[:, k]
        axes.append(-axis if axis[int(np.argmax(np.abs(axis)))] < 0 else axis)
    if planar:
        axes = [np.append(axes[0], 0.0), np.append(axes[1], 0.0), np.array([0.0, 0.0, 1.0])]
    rotations = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in ((1.0,) if planar else (1.0, -1.0)):
                rotation = np.column_stack((s1 * axes[0], s2 * axes[1], s3 * axes[2]))
                if group == E3 or np.linalg.det(rotation) > 0:
                    rotations.append(rotation)
    return rotations


@pytest.mark.parametrize("group", [E3, SE3, Z_AXIS_2D])
def test_element_order_matches_nested_sign_loop(group):
    rng = np.random.default_rng(19)
    for _ in range(20):
        system = random_system(rng)
        frame = compute_frame(system, group)
        expected = _nested_loop_rotations(system, group)
        assert frame.rotations.shape == (len(expected), 3, 3)
        for rotation, element, want in zip(frame.rotations, frame.elements, expected):
            np.testing.assert_array_equal(rotation, want)
            np.testing.assert_array_equal(element.rotation, want)
            np.testing.assert_array_equal(element.translation, frame.translation)


def test_compute_frame_validates_one_transform(monkeypatch):
    # One basis per system is checked as a rotation, in one stacked check;
    # no EuclideanTransform is built.
    built, checked = [], []
    real_init = EuclideanTransform.__post_init__
    real_check = frames.check_orthogonal

    def counting(self):
        built.append(self)
        real_init(self)

    def checking(rotations):
        checked.append(rotations.shape)
        return real_check(rotations)

    monkeypatch.setattr(EuclideanTransform, "__post_init__", counting)
    monkeypatch.setattr(frames, "check_orthogonal", checking)
    rng = np.random.default_rng(26)
    for group in (E3, SE3, Z_AXIS_2D):
        checked.clear()
        compute_frame(random_system(rng), group)
        assert checked == [(1, 3, 3)]
    checked.clear()
    compute_frame(AtomicSystem(np.array([[1.0, 2.0, 3.0]]), np.array([6])), E3)
    assert checked == [(0, 3, 3)]
    assert not built


def test_batched_frames_equal_frames_built_one_at_a_time(mixed_batch):
    rng = np.random.default_rng(34)
    counted = {True: 0, False: 0}
    for _ in range(40):
        systems = mixed_batch(rng)
        for group in (E3, SE3, Z_AXIS_2D):
            batched = compute_frames(systems, group)
            assert len(batched) == len(systems)
            for system, frame in zip(systems, batched):
                alone = compute_frame(system, group)
                for name in ("rotations", "translation", "eigenvalues"):
                    got, want = getattr(frame, name), getattr(alone, name)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                    assert got.tobytes() == want.tobytes(), name
                assert (frame.group, frame.degenerate) == (alone.group, alone.degenerate)
                counted[frame.degenerate] += 1
    assert counted[True] >= 30 and counted[False] >= 300, counted


def test_stacked_linalg_matches_one_matrix_at_a_time():
    # compute_frames solves a batch's covariances in one stacked eigh and
    # checks its bases with a stacked det; a frame's bits must not depend on
    # the batch it is built in. QR is pinned for the same reason.
    rng = np.random.default_rng(35)
    points = rng.standard_normal((42, 7, 3)) * rng.uniform(0.1, 5.0, (42, 1, 3))
    covariances = points.transpose(0, 2, 1) @ points
    for stack in (covariances, covariances[:, :2, :2]):
        values, vectors = np.linalg.eigh(stack)
        for k, matrix in enumerate(stack):
            one_values, one_vectors = np.linalg.eigh(matrix)
            assert values[k].tobytes() == one_values.tobytes()
            assert vectors[k].tobytes() == one_vectors.tobytes()
    dets = np.linalg.det(points[:, :3])
    q, r = np.linalg.qr(points[:, :3])
    for k, matrix in enumerate(points[:, :3]):
        assert dets[k].tobytes() == np.linalg.det(matrix).tobytes()
        one_q, one_r = np.linalg.qr(matrix)
        assert q[k].tobytes() == one_q.tobytes() and r[k].tobytes() == one_r.tobytes()


def test_a_basis_that_is_not_orthogonal_is_rejected(monkeypatch):
    real = np.linalg.eigh

    def scaled(matrices):
        values, vectors = real(matrices)
        return values, vectors * 1.001

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    rng = np.random.default_rng(36)
    systems = [random_system(rng) for _ in range(3)]
    for group in (E3, SE3, Z_AXIS_2D):
        with pytest.raises(ValueError, match="rotation is not orthogonal"):
            compute_frames(systems, group)


@pytest.mark.parametrize("name", ["E3", "SE3", "Z_AXIS_2D", "degenerate"])
def test_elements_are_the_validated_transforms_bit_for_bit(name):
    system = random_system(np.random.default_rng(37))
    if name == "degenerate":
        frame = compute_frame(AtomicSystem(np.array([[1.0, 2.0, 3.0]]), np.array([6])), E3)
    else:
        frame = compute_frame(system, name)
    assert frame.degenerate == (name == "degenerate")
    elements = frame.elements
    assert len(elements) == len(frame.rotations)
    for rotation, element in zip(frame.rotations, elements):
        validated = EuclideanTransform(rotation, frame.translation)
        for field in ("rotation", "translation"):
            got, want = getattr(element, field), getattr(validated, field)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert element.det == validated.det


def test_elements_of_a_frame_that_is_not_orthogonal_are_rejected():
    frame = compute_frame(random_system(np.random.default_rng(38)), E3)
    bent = frames.Frame(frame.rotations * 1.001, frame.translation, frame.eigenvalues,
                        frame.group, frame.degenerate)
    with pytest.raises(ValueError, match="rotation is not orthogonal"):
        bent.elements


def test_a_covariance_that_overflows_is_non_finite_input():
    # Finite positions whose squares pass the float range: the covariance
    # overflows rather than the input.
    at_range = np.array([[1e200, 0.0, 0.0], [1e200, 0.0, 1.0],
                         [-1e200, 0.0, 0.0], [-1e200, 1.0, 0.0]])
    system = AtomicSystem(at_range, np.full(4, 6))
    for group in (E3, SE3, Z_AXIS_2D):
        with pytest.raises(NonFiniteInput, match="system 0: the position covariance overflows"):
            compute_frame(system, group)
    with pytest.raises(NonFiniteInput, match="system 1: "):
        compute_frames([AXIS_ALIGNED, system], E3)


def test_empty_batch_has_no_frames():
    assert compute_frames([], E3) == []


def test_single_atom_degenerate_identity():
    system = AtomicSystem(np.array([[1.0, 2.0, 3.0]]), np.array([6]))
    frame = compute_frame(system, E3)
    assert frame.degenerate
    assert len(frame.elements) == 1
    np.testing.assert_array_equal(frame.elements[0].rotation, np.eye(3))
    np.testing.assert_allclose(frame.elements[0].translation, [1.0, 2.0, 3.0])


def test_collinear_degenerate():
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    frame = compute_frame(AtomicSystem(positions, np.full(4, 6)), E3)
    assert frame.degenerate
    assert len(frame.elements) == 1


def test_isotropic_degenerate():
    # regular tetrahedron: all eigenvalues equal
    positions = np.array([
        [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
    ])
    frame = compute_frame(AtomicSystem(positions, np.full(4, 6)), E3)
    assert frame.degenerate


def test_near_degenerate_uses_relative_gap():
    base = AXIS_ALIGNED.positions.copy()
    # squeeze the second and third eigenvalues together
    base[2:4, 1] = [0.2500001, -0.2500001]
    frame = compute_frame(AtomicSystem(base, np.full(6, 6)), E3)
    assert frame.degenerate


# ----------------------------------------------------------------- view plan


@pytest.mark.parametrize("group, count", [(E3, 8), (SE3, 4), (Z_AXIS_2D, 2)])
def test_plan_full_takes_every_frame_element(group, count):
    rng = np.random.default_rng(20)
    systems = [random_system(rng) for _ in range(3)]
    plan = plan_views(systems, "full", group)
    assert plan.num_systems == 3
    assert plan.rotation.shape == (3 * count, 3, 3)
    np.testing.assert_array_equal(plan.sample, np.repeat(np.arange(3), count))
    for index, system in enumerate(systems):
        np.testing.assert_array_equal(plan.rotation[plan.sample == index],
                                      compute_frame(system, group).rotations)


@pytest.mark.parametrize("fa_mode", ["stochastic", "none", "data_augment"])
def test_plan_single_view_modes(fa_mode):
    rng = np.random.default_rng(21)
    systems = [random_system(rng) for _ in range(3)]
    plan = plan_views(systems, fa_mode, E3, rng)
    assert plan.rotation.shape == (3, 3, 3)
    np.testing.assert_array_equal(plan.sample, np.arange(3))


def test_plan_degenerate_frame_has_one_view():
    single = AtomicSystem(np.array([[0.4, -0.1, 2.0]]), np.array([6]))
    plan = plan_views([single, AXIS_ALIGNED], "full", E3)
    np.testing.assert_array_equal(plan.sample, [0] + [1] * 8)


@pytest.mark.parametrize("fa_mode", FA_MODES)
def test_plan_weights_sum_to_one_per_system(fa_mode):
    rng = np.random.default_rng(22)
    single = AtomicSystem(np.array([[0.4, -0.1, 2.0]]), np.array([6]))
    systems = [random_system(rng), single, random_system(rng)]
    plan = plan_views(systems, fa_mode, SE3, rng)
    totals = np.bincount(plan.sample, weights=plan.weight, minlength=3)
    np.testing.assert_allclose(totals, np.ones(3), rtol=0, atol=1e-15)


def test_plan_stochastic_draws_once_per_system_in_order():
    rng = np.random.default_rng(23)
    a, b = random_system(rng), random_system(rng)
    joint = plan_views([a, b], "stochastic", E3, np.random.default_rng(5))
    shared = np.random.default_rng(5)
    alone = [plan_views([s], "stochastic", E3, shared) for s in (a, b)]
    for rotation, single in zip(joint.rotation, alone):
        np.testing.assert_array_equal(rotation, single.rotation[0])


@pytest.mark.parametrize("group", [E3, SE3, Z_AXIS_2D])
def test_plan_data_augment_draws_one_motion_per_system_in_order(group):
    rng = np.random.default_rng(25)
    systems = [random_system(rng) for _ in range(4)]
    plan = plan_views(systems, "data_augment", group, np.random.default_rng(6))
    shared = np.random.default_rng(6)
    for rotation in plan.rotation:
        assert rotation.tobytes() == random_transform(group, shared).rotation.T.tobytes()


@pytest.mark.parametrize("fa_mode", FA_MODES)
def test_plan_keeps_the_frames_it_solved(fa_mode):
    # Stochastic mode keeps every element of a frame, not only the one it drew.
    rng = np.random.default_rng(27)
    single = AtomicSystem(np.array([[0.4, -0.1, 2.0]]), np.array([6]))
    systems = [random_system(rng), single, random_system(rng)]
    plan = plan_views(systems, fa_mode, SE3, rng)
    if fa_mode in ("none", "data_augment"):
        assert plan.frames is None
        return
    assert len(plan.frames) == len(systems)
    for frame, alone in zip(plan.frames, compute_frames(systems, SE3)):
        assert frame.rotations.tobytes() == alone.rotations.tobytes()
        assert frame.translation.tobytes() == alone.translation.tobytes()
        assert frame.degenerate == alone.degenerate
    for index, frame in enumerate(plan.frames):
        for rotation in plan.rotation[plan.sample == index]:
            assert any(rotation.tobytes() == element.tobytes() for element in frame.rotations)


def test_plan_none_maps_back_with_identity():
    system = random_system(np.random.default_rng(24))
    plan = plan_views([system], "none", E3)
    np.testing.assert_array_equal(plan.rotation, np.eye(3)[None])
    np.testing.assert_array_equal(plan.weight, [1.0])


def _views_as_systems(system, fa_mode, seed):
    """Each planned view as a moved system, drawn from an rng seeded as the plan's."""
    rng = np.random.default_rng(seed)
    if fa_mode == "none":
        return [system]
    if fa_mode == "data_augment":
        return [apply_transform(system, random_transform(E3, rng))]
    elements = compute_frame(system, E3).elements
    if fa_mode == "stochastic":
        elements = [elements[int(rng.integers(len(elements)))]]
    return [canonicalize(system, el).system for el in elements]


@pytest.mark.parametrize("fa_mode", FA_MODES)
def test_plan_back_returns_view_vectors_to_input_pose(fa_mode):
    # Offsets from the centroid are an equivariant per-atom vector field:
    # each view's field is the input's turned by rotation[i], and
    # rotation[i].T maps it back.
    system = random_system(np.random.default_rng(25), n=6)
    expected = system.positions - system.positions.mean(axis=0)
    plan = plan_views([system], fa_mode, E3, np.random.default_rng(3))
    views = _views_as_systems(system, fa_mode, 3)
    assert len(views) == len(plan.rotation)
    for view, rotation in zip(views, plan.rotation):
        field = view.positions - view.positions.mean(axis=0)
        np.testing.assert_allclose(field, expected @ rotation, atol=1e-12)
        np.testing.assert_allclose(field @ rotation.T, expected, atol=1e-12)


def test_plan_builds_no_systems(monkeypatch):
    rng = np.random.default_rng(27)
    systems = [random_system(rng) for _ in range(3)]
    built = []
    real_init = AtomicSystem.__post_init__

    def counting(self):
        built.append(self)
        real_init(self)

    monkeypatch.setattr(AtomicSystem, "__post_init__", counting)
    for fa_mode in FA_MODES:
        plan_views(systems, fa_mode, E3, rng)
    assert not built


def test_plan_rejects_unknown_mode_and_missing_rng():
    system = random_system(np.random.default_rng(26))
    with pytest.raises(ValueError, match="fa_mode"):
        plan_views([system], "mean")
    for fa_mode in ("stochastic", "data_augment"):
        with pytest.raises(ValueError, match="needs an rng"):
            plan_views([system], fa_mode)
