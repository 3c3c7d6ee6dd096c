"""Message-passing network: layers, heads, training loop, configuration."""

import tracemalloc

import numpy as np
import pytest

from conftest import MOLECULES
from faframe import diffmath as dm
from faframe import faenet
from faframe.errors import (
    CheckpointError,
    EmptyBatch,
    FaframeError,
    NoForcesRequested,
    NonFiniteInput,
    NonFiniteLoss,
    ShapeMismatch,
    UnknownElement,
)
from faframe.frames import canonical_views, canonicalize, compute_frame, plan_views
from faframe.elements import MAX_ATOMIC_NUMBER
from faframe.geometry import (
    E3,
    SE3,
    Z_AXIS_2D,
    AtomicSystem,
    apply_transform,
    apply_transforms,
    build_radius_graph,
    random_transform,
    random_transforms,
)
from faframe.faenet import (
    GRADCHECK_CONFIG,
    FAENetConfig,
    PROPERTY_COLUMNS,
    FAENetModel,
    TrainSample,
    _edge_features,
    _embed_arrays,
    _interaction_arrays,
    _make_batch,
    forward,
    rbf,
    train_step,
    training_forward,
)

TINY = FAENetConfig(
    hidden_channels=8,
    num_filters=8,
    num_gaussians=4,
    num_interactions=2,
    cutoff=4.0,
    max_neighbors=8,
)


def random_system(rng, n=None, z_max=20):
    if n is None:
        n = int(rng.integers(3, 9))
    return AtomicSystem(
        rng.standard_normal((n, 3)) * 1.5, rng.integers(1, z_max, size=n)
    )


def swish_np(x):
    return x / (1.0 + np.exp(-x))


# ------------------------------------------------------------------- pieces


def test_rbf_endpoints_and_range():
    values = rbf(np.array([0.0, 6.0]), 104, 6.0)
    assert values.shape == (2, 104)
    assert values[0, 0] == pytest.approx(1.0)
    assert values[1, -1] == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    spread = rbf(rng.uniform(0, 6.0, 50), 104, 6.0)
    assert spread.min() >= 0.0
    assert spread.max() <= 1.0
    # every distance inside the grid sits within half a spacing of a center
    assert spread.max(axis=1).min() >= np.exp(-0.125)


def test_rbf_width_equals_spacing():
    # one spacing away from a center the response drops to exp(-1/2)
    values = rbf(np.array([6.0 / 103]), 104, 6.0)
    assert values[0, 0] == pytest.approx(np.exp(-0.5))


def test_embed_shapes():
    rng = np.random.default_rng(1)
    model = FAENetModel(TINY, rng)
    system = random_system(rng, n=5)
    graph = build_radius_graph(system, TINY.cutoff, TINY.max_neighbors)
    batch = _make_batch(plan_views([system], "none"), TINY)
    h, e = _embed_arrays(model, batch.z_index, _edge_features(batch, 0, 1))
    assert h.shape == (5, TINY.hidden_channels)
    assert e.shape == (graph.src.size, TINY.num_filters)
    out = _interaction_arrays(model, 0, h, e, batch.src, batch.dst, system.num_atoms)
    assert out.shape == (5, TINY.hidden_channels)


def test_standard_filter_matches_concatenated_edge_inputs():
    # The filter multiplies filter_w's node blocks per node; the reference
    # multiplies the concatenated per-edge inputs, as the layer is defined.
    rng = np.random.default_rng(4)
    model = FAENetModel(TINY, rng)
    p = {name: v.data for name, v in model.params.items()}
    system = random_system(rng, n=7)
    batch = _make_batch(plan_views([system], "none"), TINY)
    h, e = _embed_arrays(model, batch.z_index, _edge_features(batch, 0, 1))
    out = _interaction_arrays(model, 0, h, e, batch.src, batch.dst, system.num_atoms)
    src, dst = batch.src.ids, batch.dst.ids

    gate_in = np.concatenate([e.data, h.data[dst], h.data[src]], axis=1)
    gate = swish_np(gate_in @ p["interaction.0.filter_w"] + p["interaction.0.filter_b"])
    messages = gate * (h.data @ p["interaction.0.node_w"])[src]
    aggregated = np.zeros((system.num_atoms, TINY.num_filters))
    for row, target in zip(messages, dst):
        aggregated[target] += row
    update = aggregated @ p["interaction.0.update_w"] + p["interaction.0.update_b"]
    expected = h.data + swish_np(update)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)


def test_forward_keeps_no_tape(monkeypatch):
    rng = np.random.default_rng(5)
    model = FAENetModel(GRADCHECK_CONFIG, rng)
    outputs = []
    real_net = faenet._net

    def recording_net(*args, **kwargs):
        outputs.append(real_net(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(faenet, "_net", recording_net)
    prediction = forward(model, random_system(rng, n=5), fa_mode="full")
    h_out, = outputs
    assert h_out._parents == () and h_out._backward is None
    assert prediction.forces is not None
    systems = [random_system(rng, n=4)]
    taped, _ = training_forward(model, systems, "full", E3, None, False)
    assert taped._parents and taped._backward is not None


def test_full_forward_builds_one_graph_for_eight_views(monkeypatch):
    rng = np.random.default_rng(14)
    model = FAENetModel(TINY, rng)
    system = random_system(rng, n=6)
    assert len(plan_views([system], "full").rotation) == 8
    # Graphs are built in batches; every system that enters one counts.
    built = []
    real = faenet.build_radius_graphs

    def counting(graph_systems, *args, **kwargs):
        built.extend(graph_systems)
        return real(graph_systems, *args, **kwargs)

    monkeypatch.setattr(faenet, "build_radius_graphs", counting)
    forward(model, system, fa_mode="full")
    assert len(built) == 1 and built[0] is system
    # At a one-byte budget every view is a chunk of its own; they share the graph.
    monkeypatch.setattr(faenet, "VIEW_CHUNK_BYTES", 1)
    forward(model, system, fa_mode="full")
    assert len(built) == 2 and built[1] is system


def test_forward_and_training_forward_share_one_reduction(monkeypatch):
    rng = np.random.default_rng(15)
    model = FAENetModel(GRADCHECK_CONFIG, rng)
    system = random_system(rng, n=5)
    calls = []
    real = faenet._average_views

    def recording(*args, **kwargs):
        calls.append(len(args[1].plan.systems))
        return real(*args, **kwargs)

    monkeypatch.setattr(faenet, "_average_views", recording)
    prediction = forward(model, system, fa_mode="full")
    energy, forces = training_forward(model, [system, system], "full", E3, None, True)
    assert calls == [1, 2]
    np.testing.assert_allclose(energy.data[:, 0], prediction.energy, rtol=1e-12)
    np.testing.assert_allclose(forces.data, np.concatenate([prediction.forces] * 2),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------- view chunks


def _counting_net(monkeypatch):
    """Replace ``_net`` by a wrapper; returns the (views, edge rows) of each call."""
    calls = []
    real = faenet._net

    def counting(model, batch, start, stop):
        calls.append((stop - start, batch.view_edges[stop] - batch.view_edges[start]))
        return real(model, batch, start, stop)

    monkeypatch.setattr(faenet, "_net", counting)
    return calls


def _set_chunk_rows(monkeypatch, config, rows):
    monkeypatch.setattr(faenet, "VIEW_CHUNK_BYTES", rows * 8 * config.num_filters)


def _hex(prediction):
    forces = () if prediction.forces is None else prediction.forces.ravel()
    return [float(prediction.energy).hex()] + [float(v).hex() for v in forces]


CHUNK_BASE = dict(hidden_channels=40, num_filters=16, num_gaussians=8, num_interactions=2,
                  cutoff=4.0, max_neighbors=8, force_head_hidden=8)
PROPERTY_TABLE = np.random.default_rng(40).standard_normal((MAX_ATOMIC_NUMBER, PROPERTY_COLUMNS))
# name -> (config overrides, system kind, group)
CHUNK_CASES = {
    "standard": ({"predict_forces": True}, "molecule", E3),
    "no_forces": ({}, "molecule", E3),
    "simple_filter": ({"mp_variant": "simple", "predict_forces": True}, "molecule", E3),
    "basic_filter": ({"mp_variant": "basic", "predict_forces": True}, "molecule", E3),
    "no_jumping": ({"jumping_connections": False, "predict_forces": True}, "molecule", E3),
    "simple_energy_head": ({"energy_head": "simple", "predict_forces": True}, "molecule", E3),
    "property_table": ({"property_table": PROPERTY_TABLE, "predict_forces": True},
                       "molecule", E3),
    "crystal": ({"predict_forces": True}, "crystal", E3),
    "se3": ({"predict_forces": True}, "molecule", SE3),
    "z_axis_2d": ({"predict_forces": True}, "molecule", Z_AXIS_2D),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_forward_is_bitwise_one_chunk(monkeypatch, case):
    overrides, kind, group = CHUNK_CASES[case]
    config = FAENetConfig(**{**CHUNK_BASE, **overrides})
    rng = np.random.default_rng(41)
    model = FAENetModel(config, rng)
    if kind == "crystal":
        system = _uncentred_crystal(rng, 16, np.eye(3) * 8.5)
    else:
        system = random_system(rng, n=9)
    views = len(plan_views([system], "full", group).rotation)
    edges = build_radius_graph(system, config.cutoff, config.max_neighbors).num_edges
    assert views > 1 and edges > 1
    calls = _counting_net(monkeypatch)

    _set_chunk_rows(monkeypatch, config, views * edges)
    whole = _hex(forward(model, system, fa_mode="full", group=group))
    assert calls == [(views, views * edges)]
    # one view per chunk, over the budget, and two or three views per chunk
    for rows in (edges, edges - 1, 2 * edges, 3 * edges):
        calls.clear()
        _set_chunk_rows(monkeypatch, config, rows)
        assert _hex(forward(model, system, fa_mode="full", group=group)) == whole
        assert sum(v for v, _ in calls) == views
        assert len(calls) == -(-views // max(rows // edges, 1))


def test_default_budget_splits_a_default_model_bitwise(monkeypatch):
    # The operating point: 480 filters, and a 12-atom molecule whose eight
    # views overrun the budget and run as more than one chunk.
    config = FAENetConfig(predict_forces=True)
    rng = np.random.default_rng(44)
    model = FAENetModel(config, rng)
    system = random_system(rng, n=12)
    calls = _counting_net(monkeypatch)
    chunked = _hex(forward(model, system, fa_mode="full"))
    assert len(calls) > 1
    calls.clear()
    monkeypatch.setattr(faenet, "VIEW_CHUNK_BYTES", 2**62)
    assert _hex(forward(model, system, fa_mode="full")) == chunked
    assert len(calls) == 1


def test_no_net_call_exceeds_the_chunk_budget(monkeypatch):
    config = FAENetConfig(**{**CHUNK_BASE, "predict_forces": True})
    rng = np.random.default_rng(42)
    model = FAENetModel(config, rng)
    system = random_system(rng, n=8)
    edges = build_radius_graph(system, config.cutoff, config.max_neighbors).num_edges
    calls = _counting_net(monkeypatch)
    expected = {1: [1] * 8, edges - 1: [1] * 8, edges: [1] * 8, 2 * edges: [2] * 4,
                5 * edges // 2: [2] * 4, 3 * edges: [3, 3, 2], 8 * edges: [8]}
    for rows, chunk_views in expected.items():
        calls.clear()
        _set_chunk_rows(monkeypatch, config, rows)
        forward(model, system, fa_mode="full")
        assert [v for v, _ in calls] == chunk_views
        for chunk, chunk_edges in calls:
            assert chunk_edges == chunk * edges
            assert chunk_edges <= rows or chunk == 1


def test_training_forward_is_one_net_call(monkeypatch):
    # Recording the tape keeps one batch whatever the budget.
    monkeypatch.setattr(faenet, "VIEW_CHUNK_BYTES", 1)
    rng = np.random.default_rng(43)
    model = FAENetModel(GRADCHECK_CONFIG, rng)
    systems = [random_system(rng, n=5), random_system(rng, n=6)]
    calls = _counting_net(monkeypatch)
    training_forward(model, systems, "full", E3, None, True)
    assert [v for v, _ in calls] == [16]
    calls.clear()
    forward(model, systems[0], fa_mode="full")
    assert [v for v, _ in calls] == [1] * 8


def _uncentred_crystal(rng, n, cell):
    # Fractional positions in [0, 1): the centroid sits near the cell's
    # centre, far from the origin.
    return AtomicSystem(rng.uniform(0.0, 1.0, (n, 3)) @ cell, rng.integers(1, 20, size=n),
                        cell=cell, pbc=(True, True, True))


def test_forward_ignores_translating_atoms_in_a_fixed_cell():
    rng = np.random.default_rng(16)
    config = FAENetConfig(
        hidden_channels=16, num_filters=16, num_gaussians=8, num_interactions=2,
        cutoff=5.0, max_neighbors=12, predict_forces=True, force_head_hidden=16,
    )
    model = FAENetModel(config, rng)
    cell = np.diag([11.0, 12.0, 13.0]) + rng.uniform(-0.5, 0.5, (3, 3))
    system = _uncentred_crystal(rng, 12, cell)
    base = forward(model, system, fa_mode="full")
    for shift in ([2.0, -3.0, 1.0], [-0.5, 4.0, 7.5]):
        moved = AtomicSystem(system.positions + shift, system.atomic_numbers,
                             cell=cell, pbc=system.pbc)
        prediction = forward(model, moved, fa_mode="full")
        assert abs(prediction.energy - base.energy) <= 1e-9 * abs(base.energy)
        np.testing.assert_allclose(prediction.forces, base.forces, rtol=0,
                                   atol=1e-9 * (1.0 + np.abs(base.forces).max()))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: a crystal's frame is the PCA of its stored positions, so "
    "wrapping an atom by a cell row changes the frame and the energy"))
def test_forward_ignores_wrapping_an_atom_by_a_cell_row():
    # The wrapped atom is the same atom of the same crystal.
    rng = np.random.default_rng(18)
    config = FAENetConfig(hidden_channels=16, num_filters=16, num_gaussians=8,
                          num_interactions=2, cutoff=5.0, max_neighbors=12)
    model = FAENetModel(config, rng)
    cell = np.diag([9.0, 10.5, 12.0]) + rng.uniform(-1.0, 1.0, (3, 3))
    system = _uncentred_crystal(rng, 12, cell)
    positions = system.positions.copy()
    positions[0] += cell[1]
    wrapped = AtomicSystem(positions, system.atomic_numbers, cell=cell, pbc=system.pbc)
    base = forward(model, system, fa_mode="full").energy
    assert abs(forward(model, wrapped, fa_mode="full").energy - base) <= 1e-9 * abs(base)


def test_forward_on_uncentred_crystal_at_default_cutoff():
    # A 12.5 A cube is wider than twice the default 6 A cutoff, so only the
    # +/-1 images can be in reach, in every view.
    rng = np.random.default_rng(17)
    config = FAENetConfig(hidden_channels=8, num_filters=8, num_gaussians=8,
                          num_interactions=1, predict_forces=True, force_head_hidden=8)
    assert config.cutoff == FAENetConfig().cutoff == 6.0
    model = FAENetModel(config, rng)
    system = _uncentred_crystal(rng, 40, np.eye(3) * 12.5)
    prediction = forward(model, system, fa_mode="full")
    assert np.isfinite(prediction.energy)
    assert prediction.forces.shape == (40, 3)


def test_isolated_atom_matches_closed_form():
    # no edges: aggregation is zero, each layer adds swish(update bias)
    rng = np.random.default_rng(2)
    model = FAENetModel(TINY, rng)
    for layer in range(TINY.num_interactions):
        model.params[f"interaction.{layer}.update_b"].data = rng.standard_normal(8) * 0.3
    system = AtomicSystem(np.array([[0.3, -0.2, 1.0]]), np.array([8]))

    p = {name: v.data for name, v in model.params.items()}
    h = p["atom_embedding"][7][None, :]
    jump = np.zeros_like(h)
    for layer in range(TINY.num_interactions):
        h = h + swish_np(p[f"interaction.{layer}.update_b"])[None, :]
        jump = jump + h

    def head(prefix, x):
        hidden = swish_np(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"])
        return hidden @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]

    value = head("energy_head.value", jump)
    alpha = 1.0 / (1.0 + np.exp(-head("energy_head.alpha", jump)))
    expected = float((alpha * value).sum())

    prediction = forward(model, system)
    assert prediction.energy == pytest.approx(expected, rel=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    model = FAENetModel(TINY, rng)
    system = random_system(rng, n=7)
    perm = rng.permutation(7)
    shuffled = AtomicSystem(system.positions[perm], system.atomic_numbers[perm])
    for mode in ("none", "full"):
        a = forward(model, system, fa_mode=mode)
        b = forward(model, shuffled, fa_mode=mode)
        assert b.energy == pytest.approx(a.energy, rel=1e-12, abs=1e-12)


def test_permutation_equivariance_of_forces():
    rng = np.random.default_rng(4)
    config = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=2,
        cutoff=4.0, max_neighbors=8, predict_forces=True, force_head_hidden=8,
    )
    model = FAENetModel(config, rng)
    system = random_system(rng, n=6)
    perm = rng.permutation(6)
    shuffled = AtomicSystem(system.positions[perm], system.atomic_numbers[perm])
    a = forward(model, system, fa_mode="none")
    b = forward(model, shuffled, fa_mode="none")
    np.testing.assert_allclose(b.forces, a.forces[perm], atol=1e-12)


def test_param_count_regression():
    rng = np.random.default_rng(5)
    assert FAENetModel(GRADCHECK_CONFIG, rng).param_count() == 1933
    tiny16 = FAENetConfig(
        hidden_channels=16, num_filters=16, num_gaussians=8,
        num_interactions=2, cutoff=5.0, max_neighbors=12,
    )
    assert FAENetModel(tiny16, rng).param_count() == 5266


def _mean_of_none_mode_views(model, system, rotate_cell):
    """The ``none``-mode energy averaged over the system's E3 frame views,
    each view given its rotated cell or, if not ``rotate_cell``, the input's."""
    frame = compute_frame(system, E3)
    assert not frame.degenerate
    positions, cells = canonical_views(system, frame.translation, frame.rotations)
    return float(np.mean([
        forward(model, AtomicSystem(view, system.atomic_numbers,
                                    cell if rotate_cell else system.cell, system.pbc),
                fa_mode="none").energy
        for view, cell in zip(positions, cells)]))


def _triclinic_crystal_and_model():
    rng = np.random.default_rng(19)
    config = FAENetConfig(hidden_channels=16, num_filters=16, num_gaussians=8,
                          num_interactions=2, cutoff=5.0, max_neighbors=12)
    model = FAENetModel(config, rng)
    cell = np.diag([7.0, 8.0, 9.5]) + rng.uniform(-0.4, 0.4, (3, 3))
    return _uncentred_crystal(rng, 10, cell), model


def test_full_average_equals_mean_of_canonical_views():
    rng = np.random.default_rng(6)
    model = FAENetModel(TINY, rng)
    system = random_system(rng, n=6)
    frame = compute_frame(system, E3)
    per_view = [
        forward(model, canonicalize(system, el).system, fa_mode="none").energy
        for el in frame.elements
    ]
    full = forward(model, system, fa_mode="full").energy
    assert full == pytest.approx(np.mean(per_view), rel=1e-12)

    # each stochastic draw lands exactly on one canonical view's value
    for trial in range(6):
        draw = forward(
            model, system, fa_mode="stochastic", rng=np.random.default_rng(trial)
        ).energy
        assert min(abs(draw - v) for v in per_view) < 1e-12

    # A crystal's view turns its positions and its cell rows by the same frame
    # rotation (the paper's rho_1 and rho_2), so the mean is invariant and is
    # the full-mode energy.
    crystal, model = _triclinic_crystal_and_model()
    average = _mean_of_none_mode_views(model, crystal, rotate_cell=True)
    assert abs(forward(model, crystal, fa_mode="full").energy - average) <= 1e-12 * abs(average)
    for moved in apply_transforms(crystal, *random_transforms(E3, np.random.default_rng(1), 4)):
        moved_average = _mean_of_none_mode_views(model, moved, rotate_cell=True)
        assert abs(moved_average - average) <= 1e-9 * abs(average)


def test_views_given_the_input_cell_break_a_crystals_invariance():
    # The counterfactual: rotating the positions but not the cell changes the
    # periodic images each view sees, so the mean moves with the input.
    system, model = _triclinic_crystal_and_model()
    average = _mean_of_none_mode_views(model, system, rotate_cell=False)
    moved = apply_transforms(system, *random_transforms(E3, np.random.default_rng(1), 4))
    worst = max(abs(_mean_of_none_mode_views(model, copy, rotate_cell=False) - average)
                for copy in moved)
    assert worst > 1e-3 * abs(average)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 9: where two PCA eigenvalues cross, the frame swaps two axes, "
    "so the full-mode energy jumps however small the gap"))
def test_full_mode_energy_is_continuous_where_eigenvalues_cross():
    # An 8-atom molecule with equal second moments along every axis, then its
    # principal axes scaled by (1 + eps, 1, 0.6): the two largest eigenvalues
    # swap order as eps changes sign, and no frame is degenerate.
    rng = np.random.default_rng(0)
    positions = rng.standard_normal((8, 3))
    positions -= positions.mean(axis=0)
    values, vectors = np.linalg.eigh(positions.T @ positions / len(positions))
    whitened = positions @ vectors / np.sqrt(values) * 1.5
    numbers = rng.integers(1, 9, 8)
    config = FAENetConfig(hidden_channels=16, num_filters=16, num_gaussians=16,
                          num_interactions=2, cutoff=5.0, max_neighbors=40)
    model = FAENetModel(config, np.random.default_rng(0))

    def energy(eps):
        system = AtomicSystem(whitened * np.array([1.0 + eps, 1.0, 0.6]), numbers)
        assert not compute_frame(system, E3).degenerate
        return forward(model, system, fa_mode="full").energy

    def jump(eps):
        return abs(energy(eps) - energy(-eps)) / abs(energy(eps))

    # A continuous energy's jump shrinks with eps: 100x over this range.
    assert jump(1e-5) <= 0.1 * jump(1e-3)


_DEGENERATE_FRAME = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: tied PCA eigenvalues make the frame degenerate, and its "
    "identity fallback view turns with the input"))


@pytest.mark.parametrize("name", [
    "H2O",
    *(pytest.param(name, marks=_DEGENERATE_FRAME)
      for name in ("N2", "CO2", "CH4", "NH3", "benzene", "octahedron")),
])
def test_full_mode_energy_is_e3_invariant_for_small_molecules(name):
    positions, numbers = MOLECULES[name]
    system = AtomicSystem(positions, numbers)
    config = FAENetConfig(hidden_channels=16, num_filters=16, num_gaussians=8,
                          num_interactions=2, cutoff=5.0, max_neighbors=12)
    model = FAENetModel(config, np.random.default_rng(0))
    base = forward(model, system, fa_mode="full").energy
    for moved in apply_transforms(system, *random_transforms(E3, np.random.default_rng(1), 10)):
        assert abs(forward(model, moved, fa_mode="full").energy - base) <= 1e-9 * abs(base)


def test_predict_views_of_a_one_system_plan_is_forward():
    # A plan carries its systems, so a prediction reads its system from the plan.
    rng = np.random.default_rng(20)
    model = FAENetModel(TINY, rng)
    a = random_system(rng)
    assert faenet.predict_views(model, plan_views([a], "full")) == [forward(model, a)]


def _triclinic_crystal(rng, n):
    cell = np.diag([4.1, 3.7, 3.3]) + rng.uniform(-0.4, 0.4, (3, 3))
    return AtomicSystem(rng.uniform(0.0, 1.0, (n, 3)) @ cell, rng.integers(1, 20, size=n),
                        cell=cell, pbc=(True, True, True))


@pytest.mark.parametrize("fa_mode", ["full", "stochastic", "none", "data_augment"])
def test_a_plan_of_many_systems_predicts_each_as_its_own_forward(fa_mode):
    # One plan of a molecule, a triclinic crystal and a degenerate chain
    # gives each system its own forward, drawing from rng as forward does
    # on each system in turn.
    rng = np.random.default_rng(38)
    config = FAENetConfig(hidden_channels=16, num_filters=24, num_gaussians=8,
                          num_interactions=2, cutoff=4.0, max_neighbors=12,
                          predict_forces=True, force_head_hidden=8)
    model = FAENetModel(config, rng)
    chain = AtomicSystem(np.outer(np.arange(3) * 1.1, [1.0, 0.0, 0.0]), np.full(3, 6))
    systems = [random_system(rng, n=7), _triclinic_crystal(rng, 5), chain]
    assert compute_frame(chain).degenerate
    joint, alone = np.random.default_rng(39), np.random.default_rng(39)
    predictions = faenet.predict_views(model, plan_views(systems, fa_mode, E3, joint))
    assert len(predictions) == len(systems)
    for system, prediction in zip(systems, predictions):
        own = forward(model, system, fa_mode=fa_mode, group=E3, rng=alone)
        assert abs(prediction.energy - own.energy) <= 1e-12 * abs(own.energy)
        assert prediction.forces.shape == (system.num_atoms, 3)
        bound = 1e-12 * (1.0 + np.abs(own.forces).max())
        assert np.abs(prediction.forces - own.forces).max() <= bound
    assert joint.bit_generator.state == alone.bit_generator.state


def test_none_mode_is_rotation_sensitive():
    rng = np.random.default_rng(7)
    model = FAENetModel(TINY, rng)
    system = random_system(rng, n=6)
    g = random_transform(E3, rng)
    a = forward(model, system, fa_mode="none").energy
    b = forward(model, apply_transform(system, g), fa_mode="none").energy
    assert abs(a - b) > 1e-6


def test_modes_requiring_rng_reject_none():
    rng = np.random.default_rng(8)
    model = FAENetModel(TINY, rng)
    system = random_system(rng)
    with pytest.raises(ValueError):
        forward(model, system, fa_mode="stochastic")
    with pytest.raises(ValueError):
        forward(model, system, fa_mode="data_augment")
    with pytest.raises(ValueError):
        forward(model, system, fa_mode="banana")


def test_single_atom_energy_finite_everywhere():
    rng = np.random.default_rng(9)
    model = FAENetModel(TINY, rng)
    system = AtomicSystem(np.array([[5.0, 5.0, 5.0]]), np.array([1]))
    for mode in ("full", "none"):
        assert np.isfinite(forward(model, system, fa_mode=mode).energy)


def test_unknown_element_rejected():
    rng = np.random.default_rng(10)
    model = FAENetModel(TINY, rng)
    with pytest.raises(UnknownElement):
        bad = AtomicSystem(np.zeros((2, 3)), np.array([6, 999]))
        forward(model, bad, fa_mode="none")


def test_batch_of_many_systems_is_their_one_system_batches_joined(mixed_batch):
    # Each view's rows of a joint batch are byte-equal to the same view of a
    # batch of its system alone, with atom ids shifted by the view's first row.
    rng = np.random.default_rng(37)
    config = FAENetConfig(hidden_channels=8, num_filters=8, num_gaussians=6,
                          num_interactions=1, cutoff=float(rng.uniform(2.0, 5.0)),
                          max_neighbors=int(rng.integers(2, 20)))
    for _ in range(15):
        systems = mixed_batch(rng)
        group = (E3, SE3, Z_AXIS_2D)[int(rng.integers(3))]
        plan = plan_views(systems, "full", group)
        batch = _make_batch(plan, config)
        features = _edge_features(batch, 0, len(plan.sample))
        firsts = np.cumsum([0] + [system.num_atoms for system in systems])
        view = 0
        for index, system in enumerate(systems):
            alone = _make_batch(plan_views([system], "full", group), config)
            own_features = _edge_features(alone, 0, len(alone.plan.sample))
            for own in range(len(alone.plan.sample)):
                assert plan.sample[view] == index
                a0, a1 = batch.view_atoms[view:view + 2]
                e0, e1 = batch.view_edges[view:view + 2]
                b0, b1 = alone.view_atoms[own:own + 2]
                f0, f1 = alone.view_edges[own:own + 2]
                assert features[e0:e1].tobytes() == own_features[f0:f1].tobytes()
                assert batch.z_index[a0:a1].tobytes() == alone.z_index[b0:b1].tobytes()
                for ids, own_ids in ((batch.src.ids, alone.src.ids),
                                     (batch.dst.ids, alone.dst.ids)):
                    assert np.array_equal(ids[e0:e1] - a0, own_ids[f0:f1] - b0)
                assert np.array_equal(batch.atom_input[a0:a1] - firsts[index],
                                      alone.atom_input[b0:b1])
                assert (batch.atom_output[a0:a1] == view).all()
                view += 1
        assert view == len(plan.sample) and batch.plan is plan


def test_a_batch_keeps_each_systems_edge_inputs_once():
    # Every view of a system shares its edge vectors and radial block; the
    # joined edge features of all views are built a chunk at a time, never
    # by the batch.
    rng = np.random.default_rng(40)
    system = AtomicSystem(rng.uniform(-1.0, 1.0, (16, 3)) * np.array([2.4, 1.8, 1.2]),
                          rng.choice((1, 6, 7, 8), 16))
    config = FAENetConfig()
    plan = plan_views([system], "full", E3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch = _make_batch(plan, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    edges = int(batch.view_edges[-1])
    assert len(plan.sample) == 8 and edges > 8 * 100
    assert peak < edges * (3 + config.num_gaussians) * 8


def test_empty_batch_is_one_named_error():
    model = FAENetModel(TINY, np.random.default_rng(0))
    assert issubclass(EmptyBatch, FaframeError) and issubclass(EmptyBatch, ValueError)
    with pytest.raises(EmptyBatch, match="empty batch"):
        training_forward(model, [], "full", E3, None, False)
    with pytest.raises(EmptyBatch, match="empty batch"):
        train_step(model, [], dm.AdamW(model.parameters()), fa_mode="full")


@pytest.mark.parametrize("fa_mode", ["full", "stochastic"])
def test_forward_on_a_covariance_that_overflows_is_non_finite_input(fa_mode):
    # Every position is finite and atoms 0-1 and 2-3 are edges, but the
    # covariance is past the float range: no NaN energy comes back.
    at_range = np.array([[1e200, 0.0, 0.0], [1e200, 0.0, 1.0],
                         [-1e200, 0.0, 0.0], [-1e200, 1.0, 0.0]])
    system = AtomicSystem(at_range, np.full(4, 6))
    assert build_radius_graph(system, TINY.cutoff, TINY.max_neighbors).num_edges == 4
    model = FAENetModel(TINY, np.random.default_rng(0))
    with pytest.raises(NonFiniteInput, match="covariance overflows"):
        forward(model, system, fa_mode=fa_mode, rng=np.random.default_rng(1))


# ------------------------------------------------------------------ training


def test_training_forward_shapes_and_agreement_with_forward():
    rng = np.random.default_rng(11)
    model = FAENetModel(TINY, rng)
    systems = [random_system(rng, n=4), random_system(rng, n=6)]
    energy, forces = training_forward(model, systems, "full", E3, None, False)
    assert energy.shape == (2, 1)
    assert forces is None
    for i, system in enumerate(systems):
        assert energy.data[i, 0] == pytest.approx(
            forward(model, system, fa_mode="full").energy, rel=1e-12
        )


def test_training_forward_forces_concatenate_per_sample():
    rng = np.random.default_rng(12)
    config = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=1,
        cutoff=4.0, max_neighbors=8, predict_forces=True, force_head_hidden=8,
    )
    model = FAENetModel(config, rng)
    systems = [random_system(rng, n=3), random_system(rng, n=5)]
    _, forces = training_forward(model, systems, "full", E3, None, True)
    assert forces.shape == (8, 3)
    split = [forward(model, s, fa_mode="full").forces for s in systems]
    np.testing.assert_allclose(forces.data, np.concatenate(split, axis=0), atol=1e-12)


def test_overfit_single_sample():
    rng = np.random.default_rng(13)
    config = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=1,
        cutoff=4.0, max_neighbors=8, energy_head="simple",
    )
    model = FAENetModel(config, rng)
    optimizer = dm.AdamW(model.parameters(), learning_rate=1e-2)
    sample = TrainSample(random_system(rng, n=4), energy=1.0)
    losses = [
        train_step(model, [sample], optimizer, fa_mode="full")
        for _ in range(300)
    ]
    # windowed means must decrease and the tail must be tiny
    windows = [float(np.mean(losses[i:i + 50])) for i in range(0, 300, 50)]
    assert all(b < a for a, b in zip(windows, windows[1:]))
    assert windows[-1] < 0.01 * windows[0]


def test_zero_learning_rate_freezes_params():
    rng = np.random.default_rng(14)
    model = FAENetModel(TINY, rng)
    before = {k: v.data.copy() for k, v in model.params.items()}
    optimizer = dm.AdamW(model.parameters(), learning_rate=0.0)
    sample = TrainSample(random_system(rng, n=4), energy=2.0)
    train_step(model, [sample], optimizer, fa_mode="full")
    for name, value in model.params.items():
        np.testing.assert_array_equal(value.data, before[name])


def test_zero_force_coeff_leaves_force_head_untouched():
    rng = np.random.default_rng(15)
    config = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=1,
        cutoff=4.0, max_neighbors=8, predict_forces=True, force_head_hidden=8,
    )
    model = FAENetModel(config, rng)
    optimizer = dm.AdamW(model.parameters(), learning_rate=1e-3)
    sample = TrainSample(random_system(rng, n=4), energy=1.0)
    train_step(model, [sample], optimizer, force_coeff=0.0, fa_mode="full")
    for name, p in model.params.items():
        if name.startswith("force_head"):
            assert p.grad is None


def test_force_coeff_without_head_raises():
    rng = np.random.default_rng(16)
    model = FAENetModel(TINY, rng)
    sample = TrainSample(random_system(rng, n=4), energy=1.0, forces=np.zeros((4, 3)))
    optimizer = dm.AdamW(model.parameters())
    with pytest.raises(NoForcesRequested):
        train_step(model, [sample], optimizer, force_coeff=1.0, fa_mode="full")


def test_missing_force_targets_rejected():
    rng = np.random.default_rng(17)
    config = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=1,
        cutoff=4.0, max_neighbors=8, predict_forces=True, force_head_hidden=8,
    )
    model = FAENetModel(config, rng)
    optimizer = dm.AdamW(model.parameters())
    sample = TrainSample(random_system(rng, n=4), energy=1.0)
    with pytest.raises(ValueError) as err:
        train_step(model, [sample], optimizer, force_coeff=1.0, fa_mode="full")
    assert "force" in str(err.value)


def test_non_finite_loss_aborts_before_update():
    rng = np.random.default_rng(18)
    model = FAENetModel(TINY, rng)
    before = {k: v.data.copy() for k, v in model.params.items()}
    optimizer = dm.AdamW(model.parameters(), learning_rate=1e-2)
    sample = TrainSample(random_system(rng, n=4), energy=1e200)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
        train_step(model, [sample], optimizer, fa_mode="full")
    for name, value in model.params.items():
        np.testing.assert_array_equal(value.data, before[name])


FORCE_TINY = FAENetConfig(hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=1,
                         cutoff=4.0, max_neighbors=8, predict_forces=True, force_head_hidden=8)


def _no_forward(*args):
    raise AssertionError("train_step ran its forward")


@pytest.mark.parametrize("fault, error, message", [
    pytest.param({"energy": "x"}, NonFiniteInput,
                 "sample 1 energy is not a finite number: 'x'", id="text_energy"),
    pytest.param({"energy": float("nan")}, NonFiniteInput,
                 "sample 1 energy is not a finite number: nan", id="nan_energy"),
    pytest.param({"forces": np.zeros((4, 3))}, ShapeMismatch,
                 "sample 1 force targets have shape (4, 3), its system needs (5, 3)",
                 id="forces_of_another_shape"),
    pytest.param({"forces": np.full((5, 3), np.inf)}, NonFiniteInput,
                 "sample 1 force targets are not all finite", id="infinite_forces"),
    pytest.param({"forces": [["a", "b", "c"]] * 5}, NonFiniteInput,
                 "sample 1 force targets are not numbers", id="text_forces"),
])
def test_train_step_checks_targets_before_the_forward_and_any_draw(fault, error, message,
                                                                    monkeypatch):
    rng = np.random.default_rng(20)
    model = FAENetModel(FORCE_TINY, rng)
    optimizer = dm.AdamW(model.parameters())
    good = TrainSample(random_system(rng, n=4), 1.0, np.zeros((4, 3)))
    bad = TrainSample(random_system(rng, n=5), 1.0, np.zeros((5, 3)))._replace(**fault)
    monkeypatch.setattr(faenet, "training_forward", _no_forward)
    state = rng.bit_generator.state
    with pytest.raises(error) as err:
        train_step(model, [good, bad], optimizer, force_coeff=1.0, rng=rng)
    assert str(err.value) == message
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("coefficient, value", [
    ("energy_coeff", float("nan")), ("force_coeff", float("inf")), ("energy_coeff", "1"),
    ("force_coeff", None),
])
def test_train_step_rejects_a_coefficient_that_is_not_a_finite_number(coefficient, value,
                                                                     monkeypatch):
    rng = np.random.default_rng(21)
    model = FAENetModel(FORCE_TINY, rng)
    sample = TrainSample(random_system(rng, n=4), 1.0, np.zeros((4, 3)))
    monkeypatch.setattr(faenet, "training_forward", _no_forward)
    with pytest.raises(ValueError, match=f"^{coefficient} must be a finite number, got "):
        train_step(model, [sample], dm.AdamW(model.parameters()), **{coefficient: value})


def test_train_step_never_holds_its_activations_and_the_last_gradients_at_once():
    # The second of two steps: the first step's gradients are dropped before
    # the forward, and backward frees each activation once it is used, so
    # the step peaks less than one set of parameter gradients above its own
    # forward. A step that kept either would peak at least that much above.
    config = FAENetConfig(hidden_channels=128, num_filters=128, num_gaussians=32,
                          num_interactions=3, predict_forces=True, force_head_hidden=64)
    rng = np.random.default_rng(22)
    model = FAENetModel(config, rng)
    optimizer = dm.AdamW(model.parameters())
    first, second = ([TrainSample(random_system(rng, n=n), float(rng.normal()),
                                  rng.normal(0.0, 0.1, (n, 3))) for n in (6, 8)]
                     for _ in range(2))
    grad_bytes = sum(p.data.nbytes for p in model.parameters())

    def traced_rise(run):
        """Peak traced bytes of ``run()`` above those alive when it starts."""
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()  # before the first step, so that its gradients are traced
    try:
        train_step(model, first, optimizer, force_coeff=1.0, rng=np.random.default_rng(1))
        assert sum(p.grad.nbytes for p in model.parameters()) == grad_bytes
        forward_rise = traced_rise(lambda: training_forward(
            model, [s.system for s in second], "stochastic", E3, np.random.default_rng(2), True))
        step_rise = traced_rise(lambda: train_step(
            model, second, optimizer, force_coeff=1.0, rng=np.random.default_rng(2)))
    finally:
        tracemalloc.stop()
    # Both peaks counted from the model without gradients: the step starts
    # with the first step's gradients alive, the forward needs none.
    forward_peak, step_peak = forward_rise, grad_bytes + step_rise
    assert step_peak - forward_peak < grad_bytes


def _zero_fill_accumulate(self, delta):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += delta


def _unfused_dense(x, w, b, activate):
    out = dm.add(dm.matmul(x, w), b)
    return dm.swish(out) if activate else out


def _unfused_edge_gate(e, w, a, a_index, b, b_index):
    return dm.swish(dm.add(dm.add(dm.matmul(e, w), dm.gather_rows(a, a_index)),
                           dm.gather_rows(b, b_index)))


def _unfused_message_sum(gate, x, src, dst, num_segments):
    return dm.segment_sum(dm.mul(gate, dm.gather_rows(x, src)), dst, num_segments)


def _whole_array_scatter(values, index, n):
    out = np.zeros((n,) + values.shape[1:])
    if index.ids.size:
        if index.order is not None:
            values = values[index.order]
        out[index.heads] = np.add.reduceat(values, index.starts, axis=0)
    return out


def _two_force_steps(seed):
    config = FAENetConfig(hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=2,
                          cutoff=4.0, max_neighbors=8, predict_forces=True, force_head_hidden=6)
    model = FAENetModel(config, np.random.default_rng(seed))
    optimizer = dm.AdamW(model.parameters(), learning_rate=1e-2)
    rng = np.random.default_rng(seed + 1)
    losses = []
    for _ in range(2):
        batch = [TrainSample(random_system(rng, n=n), float(rng.normal()),
                             rng.normal(0.0, 0.1, (n, 3))) for n in (4, 6, 9)]
        losses.append(train_step(model, batch, optimizer, force_coeff=1.0, rng=rng))
    return losses, {name: p.data.tobytes() for name, p in model.params.items()}


def test_training_is_bitwise_the_zero_filled_unfused_tape(monkeypatch):
    # Owned gradients, the fused dense steps, gate and message sum, and
    # blocked swish chains and scatters (a few rows per block here) change
    # no bit of the loss or of any parameter.
    monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", 3 * 8 * 8)
    losses, params = _two_force_steps(31)
    monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", 1 << 40)
    monkeypatch.setattr(dm.DiffValue, "accumulate_grad", _zero_fill_accumulate)
    monkeypatch.setattr(dm, "dense", _unfused_dense)
    monkeypatch.setattr(dm, "edge_gate", _unfused_edge_gate)
    monkeypatch.setattr(dm, "message_sum", _unfused_message_sum)
    monkeypatch.setattr(dm, "_scatter_rows", _whole_array_scatter)
    reference_losses, reference = _two_force_steps(31)
    assert losses == reference_losses
    assert params == reference


def test_gradient_check_differentiates_the_training_loss(monkeypatch):
    # A loss whose backward is off by 1% is caught: the model case of the
    # check runs through the very loss train_step minimizes.
    true_loss = faenet._loss

    def skewed_loss(*args):
        loss = true_loss(*args)
        inner = loss._backward
        loss._backward = lambda grad: inner(grad * 1.01)
        return loss

    monkeypatch.setattr(faenet, "_loss", skewed_loss)
    report = faenet.run_gradient_check()
    assert report["status"] == "FAIL"
    assert report["worst_op"] == "full_forward_loss"
    assert report["max_rel_err"] == pytest.approx(0.01, rel=1e-3)


def test_data_augment_training_runs():
    rng = np.random.default_rng(19)
    model = FAENetModel(TINY, rng)
    optimizer = dm.AdamW(model.parameters(), learning_rate=1e-3)
    sample = TrainSample(random_system(rng, n=4), energy=0.5)
    loss = train_step(
        model, [sample], optimizer, fa_mode="data_augment", rng=rng
    )
    assert np.isfinite(loss)


# -------------------------------------------------------------- configuration


def test_config_roundtrip_and_hash():
    config = FAENetConfig(
        hidden_channels=16, num_filters=24, num_gaussians=8, num_interactions=3,
        cutoff=5.5, max_neighbors=20, mp_variant="simple", energy_head="simple",
        jumping_connections=False, predict_forces=True, force_head_hidden=12,
    )
    back = FAENetConfig.from_dict(config.to_dict())
    assert back == config
    assert back.config_hash() == config.config_hash()
    assert config.config_hash() != FAENetConfig().config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError) as err:
        FAENetConfig.from_dict({"hidden_channels": 8, "dropout": 0.5})
    assert "dropout" in str(err.value)


def test_config_validation():
    with pytest.raises(ValueError):
        FAENetConfig(hidden_channels=0)
    with pytest.raises(ValueError):
        FAENetConfig(cutoff=-1.0)
    with pytest.raises(ValueError):
        FAENetConfig(mp_variant="fancy")
    with pytest.raises(ValueError):
        FAENetConfig(energy_head="gated")


@pytest.mark.parametrize("field, value", [
    ("max_neighbors", True),
    ("num_interactions", np.bool_(True)),
    ("hidden_channels", 8.0),
    ("cutoff", True),
    ("cutoff", "6"),
    ("predict_forces", "false"),
    ("jumping_connections", 0),
    ("jumping_connections", None),
])
def test_config_rejects_bools_and_non_numbers_at_construction(field, value):
    # max_neighbors=True used to pass here and fail in every forward call;
    # predict_forces="false", as a JSON file can give it, built a force head.
    with pytest.raises(ValueError, match=field):
        FAENetConfig(**{field: value})


def test_config_stores_plain_numbers_so_equal_settings_hash_alike():
    plain = FAENetConfig(hidden_channels=8, num_interactions=2, cutoff=6.0, predict_forces=True)
    numpy = FAENetConfig(hidden_channels=np.int64(8), num_interactions=np.int32(2),
                         cutoff=np.float32(6.0), predict_forces=np.bool_(True))
    assert numpy.config_hash() == plain.config_hash()
    assert type(numpy.hidden_channels) is int and type(numpy.cutoff) is float
    assert type(numpy.predict_forces) is bool
    assert FAENetConfig(cutoff=6).config_hash() == FAENetConfig(cutoff=6.0).config_hash()


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf")])
def test_config_rejects_non_finite_cutoff(cutoff):
    # nan slips past a "<= 0" test and inf makes the radial basis nan.
    with pytest.raises(ValueError, match="cutoff"):
        FAENetConfig(cutoff=cutoff)


def test_mp_variants_all_run():
    rng = np.random.default_rng(20)
    system = random_system(rng, n=5)
    energies = {}
    for variant in ("standard", "simple", "basic"):
        config = FAENetConfig(
            hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=2,
            cutoff=4.0, max_neighbors=8, mp_variant=variant,
        )
        model = FAENetModel(config, np.random.default_rng(21))
        energies[variant] = forward(model, system).energy
        assert np.isfinite(energies[variant])
    # the basic variant needs filters and hidden widths to agree with the
    # edge embedding, which the shared shapes above satisfy
    assert len(set(energies.values())) == 3


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    model = FAENetModel(TINY, rng)
    system = random_system(rng, n=5)
    expected = forward(model, system).energy
    path = tmp_path / "weights.json"
    model.save(path)
    fresh = FAENetModel(TINY, np.random.default_rng(99))
    assert forward(fresh, system).energy != pytest.approx(expected)
    fresh.load(path)
    assert forward(fresh, system).energy == pytest.approx(expected, rel=1e-15)


def test_load_rejects_a_checkpoint_of_other_names_or_shapes(tmp_path):
    model = FAENetModel(TINY, np.random.default_rng(24))
    path = tmp_path / "weights.json"
    params = dict(model.params)
    params["extra"] = dm.DiffValue(np.zeros(2))
    dm.save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match=r"unexpected \['extra'\]"):
        model.load(path)
    # Another model's weights, with a wrong-shaped entry written last: the
    # entries before it must not be loaded either.
    params = dict(FAENetModel(TINY, np.random.default_rng(25)).params)
    del params["atom_embedding"]
    params["atom_embedding"] = dm.DiffValue(np.zeros((2, 2)))
    dm.save_checkpoint(params, path)
    before = {name: p.data.tobytes() for name, p in model.params.items()}
    with pytest.raises(CheckpointError, match="atom_embedding has shape"):
        model.load(path)
    assert {name: p.data.tobytes() for name, p in model.params.items()} == before


def test_load_rejects_mismatched_architecture(tmp_path):
    rng = np.random.default_rng(23)
    model = FAENetModel(TINY, rng)
    path = tmp_path / "weights.json"
    model.save(path)
    other = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=3,
        cutoff=4.0, max_neighbors=8,
    )
    with pytest.raises(ValueError):
        FAENetModel(other, rng).load(path)
