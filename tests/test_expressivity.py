"""Benchmark pair generators, the rigid-alignment oracle, and the runner."""

import itertools

import numpy as np
import pytest

from faframe.errors import DegenerateAngle
from faframe.expressivity import (
    ALIGNMENT_THRESHOLD,
    BenchmarkResult,
    default_benchmark_config,
    gen_k_chain,
    gen_rot_sym,
    rigid_alignment_residual,
    run_benchmark,
)
from faframe.faenet import FAENetConfig
from faframe.geometry import E3, AtomicSystem, apply_transform, random_transform


def procrustes_rmsd(p, q):
    """Independent best-rigid-fit RMSD for one fixed atom correspondence."""
    p = p - p.mean(axis=0)
    q = q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(p.T @ q)
    return float(np.sqrt(((p @ (u @ vt) - q) ** 2).sum() / len(p)))


# ------------------------------------------------------------------- oracle


def test_oracle_zero_for_rigid_copies():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(3, 7))
        a = AtomicSystem(rng.standard_normal((n, 3)), rng.integers(1, 4, size=n))
        perm = rng.permutation(n)
        moved = apply_transform(a, random_transform(E3, rng))
        b = AtomicSystem(moved.positions[perm], moved.atomic_numbers[perm])
        assert rigid_alignment_residual(a, b) < 1e-9


def test_oracle_matches_independent_procrustes_for_identity_labels():
    # distinct elements pin the correspondence, so the minimum over
    # permutations must equal the single-assignment Procrustes fit
    rng = np.random.default_rng(1)
    a_pos = rng.standard_normal((5, 3))
    b_pos = rng.standard_normal((5, 3))
    numbers = np.array([1, 2, 3, 4, 5])
    a = AtomicSystem(a_pos, numbers)
    b = AtomicSystem(b_pos, numbers)
    assert rigid_alignment_residual(a, b) == pytest.approx(
        procrustes_rmsd(a_pos, b_pos), abs=1e-12
    )


def test_oracle_minimizes_over_like_element_permutations():
    rng = np.random.default_rng(2)
    a_pos = rng.standard_normal((4, 3))
    b_pos = rng.standard_normal((4, 3))
    numbers = np.full(4, 6)
    best = min(
        procrustes_rmsd(a_pos[list(perm)], b_pos)
        for perm in itertools.permutations(range(4))
    )
    got = rigid_alignment_residual(
        AtomicSystem(a_pos, numbers), AtomicSystem(b_pos, numbers)
    )
    assert got == pytest.approx(best, abs=1e-12)


def test_oracle_detects_reflections():
    rng = np.random.default_rng(3)
    positions = rng.standard_normal((5, 3))
    mirrored = positions * np.array([-1.0, 1.0, 1.0])
    a = AtomicSystem(positions, np.arange(1, 6))
    b = AtomicSystem(mirrored, np.arange(1, 6))
    assert rigid_alignment_residual(a, b) < 1e-9


def test_oracle_infinite_for_different_compositions():
    a = AtomicSystem(np.zeros((2, 3)), np.array([1, 6]))
    b = AtomicSystem(np.zeros((2, 3)), np.array([1, 7]))
    assert rigid_alignment_residual(a, b) == np.inf


def test_oracle_falls_back_to_distance_multisets_over_cap():
    rng = np.random.default_rng(4)
    # 9 like atoms -> 362880 assignments, beyond the default cap; the two
    # clouds have different distance multisets, so the fallback decides
    a = AtomicSystem(rng.standard_normal((9, 3)), np.full(9, 6))
    b = AtomicSystem(rng.standard_normal((9, 3)) * 2.0, np.full(9, 6))
    assert rigid_alignment_residual(a, b) == np.inf


# --------------------------------------------------------------- generators


def test_k_chain_shapes_and_composition():
    instance = gen_k_chain(4)
    assert instance.family == "kchains"
    assert instance.parameter == 4
    a, b = instance.system_a, instance.system_b
    assert a.num_atoms == b.num_atoms == 6
    np.testing.assert_array_equal(a.atomic_numbers, np.full(6, 6))
    np.testing.assert_array_equal(a.atomic_numbers, b.atomic_numbers)
    # the backbone and the first end atom coincide; only the last end differs
    np.testing.assert_allclose(a.positions[:-1], b.positions[:-1])
    assert np.abs(a.positions[-1] - b.positions[-1]).max() > 0.5


def test_k_chain_shares_bond_geometry():
    instance = gen_k_chain(4)
    for system in instance.systems:
        pos = system.positions
        # consecutive pair distances along the chain, ends included
        order = [0] + list(range(1, 5)) + [5]
        bonds = [np.linalg.norm(pos[i] - pos[j]) for i, j in zip(order, order[1:])]
        np.testing.assert_allclose(bonds, 1.0, atol=1e-12)


def test_k_chain_classes_are_rigidly_distinct():
    for k in (2, 3, 4, 6):
        instance = gen_k_chain(k)
        assert instance.min_alignment_residual > ALIGNMENT_THRESHOLD
    with pytest.raises(ValueError):
        gen_k_chain(1)


def test_k_chain_deterministic():
    a = gen_k_chain(4)
    b = gen_k_chain(4)
    np.testing.assert_array_equal(a.system_a.positions, b.system_a.positions)
    np.testing.assert_array_equal(a.system_b.positions, b.system_b.positions)


def test_rot_sym_structure():
    instance = gen_rot_sym(3)
    a, b = instance.systems
    assert a.num_atoms == 5
    np.testing.assert_array_equal(a.atomic_numbers, [7, 7, 7, 6, 8])
    # ring atoms sit on a unit circle at z = +0.5
    ring = a.positions[:3]
    np.testing.assert_allclose(np.linalg.norm(ring[:, :2], axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ring[:, 2], 0.5, atol=1e-12)
    # anchor and marker are shared between the classes
    np.testing.assert_array_equal(a.positions[3:], b.positions[3:])
    assert instance.min_alignment_residual > ALIGNMENT_THRESHOLD


def test_rot_sym_rejects_period_multiples():
    for L in (2, 3, 5):
        with pytest.raises(DegenerateAngle):
            gen_rot_sym(L, angle=2 * np.pi / L)
        with pytest.raises(DegenerateAngle):
            gen_rot_sym(L, angle=4 * np.pi / L)
    with pytest.raises(ValueError):
        gen_rot_sym(1)


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
def test_rot_sym_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="angle") as excinfo:
        gen_rot_sym(3, angle=angle)
    assert not isinstance(excinfo.value, DegenerateAngle)
    assert repr(angle) in str(excinfo.value)


def test_rot_sym_default_angle_is_half_period():
    instance = gen_rot_sym(5)
    expected = _ring_angle(instance.system_b.positions[0]) - _ring_angle(
        instance.system_a.positions[0]
    )
    assert expected == pytest.approx(np.pi / 5, abs=1e-12)


def _ring_angle(row):
    return float(np.arctan2(row[1], row[0]))


# ------------------------------------------------------------------- runner


def test_default_configs_are_small_and_simple_headed():
    for family in ("kchains", "rotsym"):
        config = default_benchmark_config(family)
        assert config.energy_head == "simple"
        assert config.hidden_channels == 32
        assert config.num_interactions == 1
    assert default_benchmark_config("kchains").cutoff < default_benchmark_config("rotsym").cutoff
    with pytest.raises(ValueError):
        default_benchmark_config("mazes")


def test_untrained_accuracy_is_chance_level():
    result = run_benchmark(
        "kchains", 4, num_seeds=1, epochs=0, test_transforms=50, seed=7
    )
    # 100 balanced test points; a coin-flip classifier stays within
    # 3 binomial standard deviations of one half
    assert abs(result.mean_accuracy - 0.5) <= 3 * np.sqrt(0.25 / 100)
    assert result.std_accuracy == 0.0
    assert len(result.accuracies) == 1


def test_benchmark_reports_the_layer_count_of_its_config():
    config = FAENetConfig(hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=3,
                          cutoff=1.2, max_neighbors=8, energy_head="simple")
    result = run_benchmark("kchains", 3, num_seeds=1, epochs=0, test_transforms=1,
                           config=config)
    assert result.num_layers == 3
    assert result.config_hash == config.config_hash()
    assert run_benchmark("kchains", 3, num_seeds=1, epochs=0, test_transforms=1).num_layers == 1


def test_benchmark_result_statistics():
    result = BenchmarkResult(
        family="kchains", parameter=4, fa_mode="stochastic", group="E3",
        num_layers=1, epochs=10, accuracies=(1.0, 0.5), min_alignment_residual=0.4,
        seed=0, config_hash="ff",
    )
    assert result.mean_accuracy == pytest.approx(0.75)
    assert result.std_accuracy == pytest.approx(0.25)
    assert result.perfect_seeds == 1
    payload = result.to_dict()
    assert payload["num_seeds"] == 2
    assert payload["schema_version"] == 1
    assert payload["accuracies"] == [1.0, 0.5]


def test_benchmark_rejects_cross_family_angle():
    with pytest.raises(ValueError):
        run_benchmark("kchains", 4, angle=0.3, num_seeds=1, epochs=0)
    with pytest.raises(ValueError):
        run_benchmark("spirals", 4, num_seeds=1, epochs=0)


@pytest.mark.parametrize("counts, message", [
    ({"num_seeds": 0}, "num_seeds"),
    ({"num_seeds": -1}, "num_seeds"),
    ({"test_transforms": 0}, "test_transforms"),
    ({"test_transforms": -2}, "test_transforms"),
    ({"epochs": -2}, "epochs"),
    ({"train_transforms": -5}, "train_transforms"),
])
def test_benchmark_rejects_empty_runs(counts, message):
    # Zero epochs or training copies is a valid, untrained run.
    floor = 0 if message in ("epochs", "train_transforms") else 1
    with pytest.raises(ValueError,
                       match=f"{message} must be at least {floor}, got {counts[message]}"):
        run_benchmark("kchains", 4, **{"epochs": 0, "num_seeds": 1, **counts})


def test_short_training_separates_the_classes():
    # tiny smoke run; the acceptance suite exercises the full schedule
    result = run_benchmark(
        "kchains", 4, num_seeds=1, epochs=100, fa_mode="stochastic",
        train_transforms=4, test_transforms=25, seed=1,
    )
    assert result.mean_accuracy >= 0.9
