"""A compact invariant/equivariant GNN trained on frame-averaged views.

The backbone never sees raw coordinates: every input is first planned
into one or more views (see :mod:`faframe.frames`), each a rotation of the
input. The network runs on each system's radius graph, built in the input
pose by one search per batch, with the edge vectors turned into each view's
axes; outputs are mapped back and averaged.
Energies are per-system scalars; forces, when enabled, come from a direct
per-atom head evaluated in canonical axes.

Inference (no tape) runs the backbone over chunks of consecutive views within
``VIEW_CHUNK_BYTES`` and the heads once; training runs one batch.

Frames are computed outside the autodiff graph and treated as constants;
gradients flow through the network weights only.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import diffmath as dm
from .diffmath import DiffValue
from .elements import MAX_ATOMIC_NUMBER
from .errors import EmptyBatch, NoForcesRequested, ShapeMismatch
from .frames import ViewPlan, plan_views
from .geometry import E3, AtomicSystem, build_radius_graphs, positive_setting

MP_VARIANTS = ("standard", "simple", "basic")
ENERGY_HEADS = ("weighted", "simple")

# Width of the projected per-element property block prepended to the
# learned embedding when a property table is configured.
PROPERTY_CHANNELS = 32
PROPERTY_COLUMNS = 10

# Bytes of one E x num_filters float64 edge array per chunk of views at
# inference: 2 MiB, about 550 edge rows at 480 filters, against a 4 MB L2.
# Of budgets of 260, 520 and 1040 rows and one batch (2-vCPU VM, default
# config), 520 rows was fastest or within noise of it at 8-40 atoms.
VIEW_CHUNK_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class FAENetConfig:
    """Architecture and graph hyperparameters.

    The defaults are the reference operating point: 384 hidden channels,
    480 filters, 104 gaussians, 5 interactions, 6 angstrom cutoff, and at
    most 40 neighbors per atom. Counts are stored as plain ``int``, the
    cutoff as a plain ``float`` (see :func:`~faframe.geometry.positive_setting`)
    and the switches as plain ``bool``, so equal settings serialize and hash
    alike whatever type they came in.
    """

    hidden_channels: int = 384
    num_filters: int = 480
    num_gaussians: int = 104
    num_interactions: int = 5
    cutoff: float = 6.0
    max_neighbors: int = 40
    mp_variant: str = "standard"
    energy_head: str = "weighted"
    jumping_connections: bool = True
    predict_forces: bool = False
    force_head_hidden: int = 256
    property_table: np.ndarray | None = None

    def __post_init__(self):
        for spec in fields(self):  # every int field is a count, the float one a length
            value = getattr(self, spec.name)
            if spec.type in ("int", "float"):
                value = positive_setting(spec.name, value, spec.type == "int")
            elif spec.type == "bool":  # bool("false") is True, so only real bools pass
                if not isinstance(value, (bool, np.bool_)):
                    raise ValueError(f"{spec.name} must be a bool, got {value!r}")
                value = bool(value)
            object.__setattr__(self, spec.name, value)
        if self.mp_variant not in MP_VARIANTS:
            raise ValueError(f"mp_variant must be one of {MP_VARIANTS}, got {self.mp_variant!r}")
        if self.energy_head not in ENERGY_HEADS:
            raise ValueError(f"energy_head must be one of {ENERGY_HEADS}, got {self.energy_head!r}")
        table = self.property_table
        if table is not None:
            table = np.asarray(table, dtype=np.float64)
            if table.shape != (MAX_ATOMIC_NUMBER, PROPERTY_COLUMNS):
                raise ValueError(
                    f"property_table must be ({MAX_ATOMIC_NUMBER}, {PROPERTY_COLUMNS}), "
                    f"got {table.shape}"
                )
            if self.hidden_channels <= PROPERTY_CHANNELS:
                raise ValueError(
                    f"hidden_channels must exceed {PROPERTY_CHANNELS} when a property "
                    f"table is configured"
                )
            object.__setattr__(self, "property_table", table)

    def to_dict(self) -> dict:
        table = self.property_table
        return {**asdict(self), "property_table": None if table is None else table.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "FAENetConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


class Prediction(NamedTuple):
    energy: float
    forces: np.ndarray | None


def rbf(distances: np.ndarray, num_gaussians: int, cutoff: float) -> np.ndarray:
    """Gaussian radial basis: centers uniform on [0, cutoff], width = spacing."""
    distances = np.asarray(distances, dtype=np.float64)
    centers = np.linspace(0.0, cutoff, num_gaussians)
    sigma = cutoff / (num_gaussians - 1) if num_gaussians > 1 else cutoff
    diff = distances[..., None] - centers
    return np.exp(-(diff * diff) / (2.0 * sigma * sigma))


def _init_params(config: FAENetConfig, rng: np.random.Generator) -> dict[str, DiffValue]:
    h = config.hidden_channels
    f = config.num_filters
    g = config.num_gaussians
    params: dict[str, np.ndarray] = {}

    emb_dim = h - PROPERTY_CHANNELS if config.property_table is not None else h
    params["atom_embedding"] = dm.glorot_uniform(rng, MAX_ATOMIC_NUMBER, emb_dim)
    if config.property_table is not None:
        params["property_projection"] = dm.glorot_uniform(rng, PROPERTY_COLUMNS, PROPERTY_CHANNELS)

    edge_in = 3 + g
    params["edge_mlp.w1"] = dm.glorot_uniform(rng, edge_in, f)
    params["edge_mlp.b1"] = np.zeros(f)
    params["edge_mlp.w2"] = dm.glorot_uniform(rng, f, f)
    params["edge_mlp.b2"] = np.zeros(f)

    for layer in range(config.num_interactions):
        prefix = f"interaction.{layer}"
        if config.mp_variant == "standard":
            params[f"{prefix}.filter_w"] = dm.glorot_uniform(rng, f + 2 * h, f)
            params[f"{prefix}.filter_b"] = np.zeros(f)
        elif config.mp_variant == "simple":
            params[f"{prefix}.filter_w"] = dm.glorot_uniform(rng, f, f)
            params[f"{prefix}.filter_b"] = np.zeros(f)
        params[f"{prefix}.node_w"] = dm.glorot_uniform(rng, h, f)
        params[f"{prefix}.update_w"] = dm.glorot_uniform(rng, f, h)
        params[f"{prefix}.update_b"] = np.zeros(h)

    half = max(h // 2, 1)
    if config.energy_head == "weighted":
        params["energy_head.alpha.w1"] = dm.glorot_uniform(rng, h, half)
        params["energy_head.alpha.b1"] = np.zeros(half)
        params["energy_head.alpha.w2"] = dm.glorot_uniform(rng, half, 1)
        params["energy_head.alpha.b2"] = np.zeros(1)
    params["energy_head.value.w1"] = dm.glorot_uniform(rng, h, half)
    params["energy_head.value.b1"] = np.zeros(half)
    params["energy_head.value.w2"] = dm.glorot_uniform(rng, half, 1)
    params["energy_head.value.b2"] = np.zeros(1)

    if config.predict_forces:
        fh = config.force_head_hidden
        params["force_head.w1"] = dm.glorot_uniform(rng, h, fh)
        params["force_head.b1"] = np.zeros(fh)
        params["force_head.w2"] = dm.glorot_uniform(rng, fh, 3)
        params["force_head.b2"] = np.zeros(3)

    return {name: DiffValue(data, name=name) for name, data in params.items()}


class FAENetModel:
    """Parameter container; all computation lives in the module functions."""

    def __init__(self, config: FAENetConfig, rng: np.random.Generator | None = None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng()
        self.params = _init_params(config, rng)

    def parameters(self) -> list[DiffValue]:
        return list(self.params.values())

    def param_count(self) -> int:
        return int(sum(p.data.size for p in self.params.values()))

    def save(self, path):
        dm.save_checkpoint(self.params, path)

    def load(self, path):
        loaded = dm.load_checkpoint(path)
        if set(loaded) != set(self.params):
            missing = sorted(set(self.params) - set(loaded))
            extra = sorted(set(loaded) - set(self.params))
            raise ValueError(f"checkpoint mismatch; missing {missing}, unexpected {extra}")
        for name, data in loaded.items():
            if data.shape != self.params[name].data.shape:
                raise ValueError(
                    f"checkpoint entry {name} has shape {data.shape}, "
                    f"expected {self.params[name].data.shape}"
                )
            self.params[name].data = data


class _Batch(NamedTuple):
    z_index: np.ndarray
    edge_features: np.ndarray
    src: dm.Segments
    dst: dm.Segments
    atom_output: np.ndarray
    atom_input: np.ndarray
    view_atoms: np.ndarray
    view_edges: np.ndarray
    num_outputs: int
    num_atoms: int
    num_input_atoms: int


def _make_batch(systems: Sequence[AtomicSystem], plan: ViewPlan,
                config: FAENetConfig) -> _Batch:
    """Merge a plan's views into one disjoint graph, one output per view.

    The systems' radius graphs come from one search and their radial block
    from one pass, in the input pose; every view of a system shares them and
    turns the edge vectors by the view's rotation. Row ``r`` of the batch is
    input atom ``atom_input[r]`` (atoms of all systems numbered in order)
    seen in view ``atom_output[r]``. View ``v`` holds atom rows
    ``view_atoms[v]:view_atoms[v + 1]``, and so for edges; ``src`` and
    ``dst`` are indexed once for every scatter.
    """
    if not systems:
        raise EmptyBatch("empty batch: at least one system is needed")
    if plan.num_systems != len(systems):
        raise ShapeMismatch(f"the view plan covers {plan.num_systems} systems, "
                            f"but {len(systems)} were given")
    numbers = np.concatenate([system.atomic_numbers for system in systems])
    graphs = build_radius_graphs(systems, config.cutoff, config.max_neighbors)
    radial = rbf(np.concatenate([graph.distances for graph in graphs]), config.num_gaussians,
                 config.cutoff)
    # First atom and edge of each system in the joined input arrays, and of
    # each view in the batch; a view's rows are its system's, shifted.
    atom_first = np.cumsum([0] + [system.num_atoms for system in systems])
    edge_first = np.cumsum([0] + [graph.num_edges for graph in graphs])
    atoms = np.diff(atom_first)[plan.sample]
    edges = np.diff(edge_first)[plan.sample]
    view_atoms = np.concatenate(([0], atoms.cumsum()))
    view_edges = np.concatenate(([0], edges.cumsum()))
    atom_input = np.arange(view_atoms[-1]) + (atom_first[plan.sample] - view_atoms[:-1]).repeat(atoms)
    edge_input = np.arange(view_edges[-1]) + (edge_first[plan.sample] - view_edges[:-1]).repeat(edges)
    atom_shift = view_atoms[:-1].repeat(edges)
    rotated = [graphs[index].rel_vectors @ rotation
               for index, rotation in zip(plan.sample, plan.rotation)]
    return _Batch(
        z_index=numbers.take(atom_input) - 1,
        edge_features=np.concatenate([np.concatenate(rotated), radial.take(edge_input, axis=0)],
                                     axis=1),
        src=dm.segments(np.concatenate([g.src for g in graphs]).take(edge_input) + atom_shift),
        dst=dm.segments(np.concatenate([g.dst for g in graphs]).take(edge_input) + atom_shift),
        atom_output=np.arange(len(plan.sample)).repeat(atoms),
        atom_input=atom_input,
        view_atoms=view_atoms,
        view_edges=view_edges,
        num_outputs=len(plan.sample),
        num_atoms=int(view_atoms[-1]),
        num_input_atoms=int(atom_first[-1]),
    )


def _views(batch: _Batch, start: int, stop: int) -> _Batch:
    """Views ``start:stop`` as a batch: no edge leaves its view, so its rows are slices."""
    a0, a1 = batch.view_atoms[start], batch.view_atoms[stop]
    e0, e1 = batch.view_edges[start], batch.view_edges[stop]
    return _Batch(
        z_index=batch.z_index[a0:a1],
        edge_features=batch.edge_features[e0:e1],
        src=dm.segments(batch.src.ids[e0:e1] - a0),
        dst=dm.segments(batch.dst.ids[e0:e1] - a0),
        atom_output=batch.atom_output[a0:a1] - start,
        atom_input=batch.atom_input[a0:a1],
        view_atoms=batch.view_atoms[start:stop + 1] - a0,
        view_edges=batch.view_edges[start:stop + 1] - e0,
        num_outputs=stop - start,
        num_atoms=int(a1 - a0),
        num_input_atoms=batch.num_input_atoms,
    )


def _view_chunks(batch: _Batch, num_filters: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` view ranges whose edge arrays fit ``VIEW_CHUNK_BYTES``.

    A view over the budget is a chunk of its own; a batch that fits is one chunk.
    """
    budget = max(VIEW_CHUNK_BYTES // (8 * num_filters), 1)
    chunks, start, rows = [], 0, 0
    for view, edges in enumerate(np.diff(batch.view_edges)):
        if view > start and rows + edges > budget:
            chunks.append((start, view))
            start, rows = view, 0
        rows += edges
    chunks.append((start, batch.num_outputs))
    return chunks


def _two_layer(params, prefix, x: DiffValue) -> DiffValue:
    hidden = dm.swish(dm.add(dm.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return dm.add(dm.matmul(hidden, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _embed_arrays(model: FAENetModel, batch: _Batch) -> tuple[DiffValue, DiffValue]:
    params = model.params
    h0 = dm.gather_rows(params["atom_embedding"], batch.z_index)
    table = model.config.property_table
    if table is not None:
        projected = dm.matmul(dm.constant(table[batch.z_index]), params["property_projection"])
        h0 = dm.concat([h0, projected], axis=1)
    return h0, _two_layer(params, "edge_mlp", dm.constant(batch.edge_features))


def _interaction_arrays(model: FAENetModel, layer: int, h: DiffValue, e: DiffValue,
                        src: np.ndarray, dst: np.ndarray, num_nodes: int) -> DiffValue:
    params = model.params
    variant = model.config.mp_variant
    prefix = f"interaction.{layer}"
    if variant == "standard":
        # concat([e, h[dst], h[src]]) @ filter_w + filter_b, one row block
        # of filter_w per part. The node blocks (and the bias, carried by
        # the dst block) are applied per node; edge_gate gathers them to the
        # edges, adds the edge block and takes the swish as one node.
        f, hidden = model.config.num_filters, model.config.hidden_channels
        weight = params[f"{prefix}.filter_w"]
        per_dst = dm.add(dm.matmul(h, dm.slice_rows(weight, f, f + hidden)),
                         params[f"{prefix}.filter_b"])
        per_src = dm.matmul(h, dm.slice_rows(weight, f + hidden, f + 2 * hidden))
        gate = dm.edge_gate(dm.matmul(e, dm.slice_rows(weight, 0, f)), per_dst, dst, per_src, src)
    elif variant == "simple":
        gate = dm.swish(dm.add(dm.matmul(e, params[f"{prefix}.filter_w"]),
                               params[f"{prefix}.filter_b"]))
    else:
        gate = e
    transformed = dm.matmul(h, params[f"{prefix}.node_w"])
    aggregated = dm.message_sum(gate, transformed, src, dst, num_nodes)
    update = dm.swish(dm.add(dm.matmul(aggregated, params[f"{prefix}.update_w"]),
                             params[f"{prefix}.update_b"]))
    return dm.add(h, update)


def _net(model: FAENetModel, batch: _Batch) -> DiffValue:
    """Run the backbone on a merged graph; returns the node states the heads read."""
    h, e = _embed_arrays(model, batch)
    layer_sum = None
    for layer in range(model.config.num_interactions):
        h = _interaction_arrays(model, layer, h, e, batch.src, batch.dst, batch.num_atoms)
        layer_sum = h if layer_sum is None else dm.add(layer_sum, h)
    return layer_sum if model.config.jumping_connections else h


def _heads(model: FAENetModel, batch: _Batch, h_out: DiffValue,
           want_forces: bool) -> tuple[DiffValue, DiffValue | None]:
    """Energy per view (B, 1) and, when asked, forces per atom row (N, 3)."""
    config = model.config
    params = model.params
    value = _two_layer(params, "energy_head.value", h_out)
    if config.energy_head == "weighted":
        alpha = dm.sigmoid(_two_layer(params, "energy_head.alpha", h_out))
        per_atom = dm.mul(alpha, value)
    else:
        per_atom = value
    energy = dm.segment_sum(per_atom, batch.atom_output, batch.num_outputs)

    forces = None
    if want_forces:
        if not config.predict_forces:
            raise NoForcesRequested("this model has no force head")
        forces = _two_layer(params, "force_head", h_out)
    return energy, forces


def forward(model: FAENetModel, system: AtomicSystem, fa_mode: str = "full",
            group: str = E3, rng: np.random.Generator | None = None) -> Prediction:
    """Predict energy (and forces if configured) for one system."""
    return predict_views(model, system, plan_views([system], fa_mode, group, rng))


def predict_views(model: FAENetModel, system: AtomicSystem, plan: ViewPlan) -> Prediction:
    """Predict energy (and forces if configured) for one system from its
    :func:`~faframe.frames.plan_views` plan.

    The plan must be this system's own, ``plan_views([system], ...)``: a plan
    of any other system turns its edges by that system's frame.
    """
    batch = _make_batch([system], plan, model.config)
    with dm.no_grad():
        energy, forces = _average_views(model, plan, batch, model.config.predict_forces)
    return Prediction(energy=float(energy.data[0, 0]),
                      forces=None if forces is None else forces.data)


class TrainSample(NamedTuple):
    system: AtomicSystem
    energy: float
    forces: np.ndarray | None = None


def training_forward(model: FAENetModel, systems: list[AtomicSystem], fa_mode: str,
                     group: str, rng: np.random.Generator | None,
                     want_forces: bool) -> tuple[DiffValue, DiffValue | None]:
    """Differentiable batched forward.

    Returns per-sample energies (B, 1) and, when requested, per-atom forces
    (sum of sample sizes, 3) mapped back to each sample's input pose. Every
    sample's views are averaged inside the graph so gradients follow the
    same path the predictions took.
    """
    plan = plan_views(systems, fa_mode, group, rng)
    return _average_views(model, plan, _make_batch(systems, plan, model.config), want_forces)


def _average_views(model: FAENetModel, plan: ViewPlan, batch: _Batch,
                   want_forces: bool) -> tuple[DiffValue, DiffValue | None]:
    """Run the net on a plan's batch and take each system's weighted view mean.

    With the tape off, the backbone runs per :func:`_view_chunks` chunk;
    views are independent, so the joined node states are one run's. The
    heads' narrow products round a row by its place, so they run once.
    Force rows return to the input pose in one batched back-rotation: each
    row by its view's ``rotation.T``, scaled by the view's weight.
    """
    chunks = [(0, batch.num_outputs)]
    if not dm.recording():
        chunks = _view_chunks(batch, model.config.num_filters)
    if len(chunks) == 1:
        h_out = _net(model, batch)
    else:
        h_out = dm.concat([_net(model, _views(batch, start, stop)) for start, stop in chunks],
                          axis=0)
    energy_views, force_views = _heads(model, batch, h_out, want_forces)
    weighted = dm.mul(energy_views, dm.constant(plan.weight[:, None]))
    energy = dm.segment_sum(weighted, plan.sample, plan.num_systems)
    if force_views is None:
        return energy, None
    back = plan.rotation.transpose(0, 2, 1) * plan.weight[:, None, None]
    rows = dm.rotate_rows(force_views, back[batch.atom_output])
    return energy, dm.segment_sum(rows, batch.atom_input, batch.num_input_atoms)


def _loss(samples: Sequence[TrainSample], energy: DiffValue, forces: DiffValue | None,
          energy_coeff: float, force_coeff: float) -> DiffValue:
    """``energy_coeff * MSE(energy) + force_coeff * MSE(forces)`` against the
    samples' targets; the force term only when ``forces`` is given."""
    energy_targets = dm.constant(np.array([[s.energy] for s in samples]))
    loss = dm.mul(dm.mse_loss(energy, energy_targets), dm.constant(np.asarray(energy_coeff)))
    if forces is not None:
        force_targets = dm.constant(np.concatenate([s.forces for s in samples], axis=0))
        force_loss = dm.mul(dm.mse_loss(forces, force_targets),
                            dm.constant(np.asarray(force_coeff)))
        loss = dm.add(loss, force_loss)
    return loss


def train_step(model: FAENetModel, batch: list, optimizer: dm.AdamW, *,
               energy_coeff: float = 1.0, force_coeff: float = 0.0,
               fa_mode: str = "stochastic", group: str = E3,
               rng: np.random.Generator | None = None) -> float:
    """One optimization step on a batch of (system, energy, forces) samples.

    The loss is :func:`_loss`, ``energy_coeff * MSE(energy) + force_coeff *
    MSE(forces)``, the one :func:`run_gradient_check` checks. It is applied by
    :meth:`~faframe.diffmath.AdamW.minimize`: a non-finite loss raises
    NonFiniteLoss before any parameter is touched.
    """
    samples = [s if isinstance(s, TrainSample) else TrainSample(*s) for s in batch]
    want_forces = force_coeff != 0.0
    if want_forces and not model.config.predict_forces:
        raise NoForcesRequested("force_coeff is nonzero but the model has no force head")
    if want_forces:
        missing = [i for i, s in enumerate(samples) if s.forces is None]
        if missing:
            raise ValueError(f"force_coeff is nonzero but samples {missing} have no force targets")

    systems = [s.system for s in samples]
    energy, forces = training_forward(model, systems, fa_mode, group, rng, want_forces)
    return optimizer.minimize(_loss(samples, energy, forces, energy_coeff, force_coeff))


GRADCHECK_TOLERANCE = 1e-4

# Small shapes keep the finite-difference sweep fast while still exercising
# accumulation paths (repeated gather indices, shared segments).
GRADCHECK_CONFIG = FAENetConfig(
    hidden_channels=8,
    num_filters=8,
    num_gaussians=4,
    num_interactions=2,
    cutoff=4.0,
    max_neighbors=8,
    predict_forces=True,
    force_head_hidden=8,
)


def _gradcheck_cases(rng: np.random.Generator):
    """Named (inputs, scalar-loss builder) pairs, one per composite op."""

    def quadratic(y):
        return dm.mean(dm.mul(y, y))

    cases = {}
    a, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
    cases["matmul"] = ([a, b], lambda v: quadratic(dm.matmul(v[0], v[1])))

    x, y = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    cases["add"] = ([x, y], lambda v: quadratic(dm.add(v[0], v[1])))
    bias = rng.standard_normal(4)
    cases["add_bias"] = ([x, bias], lambda v: quadratic(dm.add(v[0], v[1])))
    scalar = np.asarray(rng.standard_normal())
    cases["add_scalar"] = ([x, scalar], lambda v: quadratic(dm.add(v[0], v[1])))

    cases["mul"] = ([x, y], lambda v: quadratic(dm.mul(v[0], v[1])))
    cases["mul_scalar"] = ([x, scalar], lambda v: quadratic(dm.mul(v[0], v[1])))

    c1, c2 = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
    cases["concat"] = ([c1, c2], lambda v: quadratic(dm.concat([v[0], v[1]], axis=0)))
    c3 = rng.standard_normal((2, 5))
    cases["concat_axis1"] = ([c1, c3], lambda v: quadratic(dm.concat([v[0], v[1]], axis=1)))

    table = rng.standard_normal((5, 3))
    index = np.array([0, 2, 2, 4, 1, 2])
    cases["gather_rows"] = ([table], lambda v: quadratic(dm.gather_rows(v[0], index)))

    values = rng.standard_normal((6, 3))
    segments = np.array([1, 0, 2, 1, 1, 0])
    cases["segment_sum"] = ([values], lambda v: quadratic(dm.segment_sum(v[0], segments, 3)))
    # Two blocks of one parent, as the filter takes from filter_w; rows 0
    # and 5 stay outside both.
    cases["slice_rows"] = ([values], lambda v: quadratic(
        dm.add(dm.slice_rows(v[0], 1, 3), dm.slice_rows(v[0], 3, 5))))

    # One matrix per row, as in the force back-rotation. A child stream keeps
    # the draws after this case, the model's weights among them, unchanged.
    local = rng.spawn(1)[0]
    rows, matrices = local.standard_normal((5, 3)), local.standard_normal((5, 3, 3))
    cases["rotate_rows"] = ([rows], lambda v: quadratic(dm.rotate_rows(v[0], matrices)))

    z = rng.standard_normal((3, 4))
    cases["swish"] = ([z], lambda v: quadratic(dm.swish(v[0])))
    cases["sigmoid"] = ([z], lambda v: quadratic(dm.sigmoid(v[0])))
    cases["mean"] = ([z], lambda v: dm.mul(dm.mean(v[0]), dm.mean(v[0])))
    cases["sum_all"] = ([z], lambda v: dm.mul(dm.sum_all(v[0]), dm.sum_all(v[0])))

    pred, target = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    cases["mse_loss"] = ([pred, target], lambda v: dm.mse_loss(v[0], v[1]))
    logits = rng.standard_normal((5, 1))
    labels = rng.uniform(0.1, 0.9, size=(5, 1))
    cases["binary_cross_entropy_with_logits"] = (
        [logits, labels],
        lambda v: dm.binary_cross_entropy_with_logits(v[0], v[1]),
    )
    return cases


def _relative_error(analytic: np.ndarray, numerical: np.ndarray) -> float:
    scale = max(float(np.abs(numerical).max(initial=0.0)), 1e-10)
    return float(np.abs(analytic - numerical).max(initial=0.0) / scale)


def _check_case(inputs, builder) -> float:
    """Worst relative error of tape against central-difference gradients over ``inputs``."""
    values = [DiffValue(np.array(arr, dtype=np.float64)) for arr in inputs]
    loss = builder(values)
    dm.backward(loss)
    analytic = [v.grad if v.grad is not None else np.zeros_like(v.data) for v in values]
    arrays = [v.data for v in values]

    def evaluate(current):
        fresh = [DiffValue(arr.copy()) for arr in current]
        return float(builder(fresh).data)

    numerical = dm.numerical_gradient(evaluate, arrays)
    return max(_relative_error(a, n) for a, n in zip(analytic, numerical))


def _gradcheck_systems(rng: np.random.Generator) -> list[TrainSample]:
    samples = []
    for n in (3, 4):
        positions = rng.uniform(-2.0, 2.0, size=(n, 3))
        numbers = rng.integers(1, 6, size=n)
        system = AtomicSystem(positions=positions, atomic_numbers=numbers)
        samples.append(TrainSample(
            system=system,
            energy=float(rng.standard_normal()),
            forces=rng.standard_normal((n, 3)),
        ))
    return samples


def run_gradient_check(config: FAENetConfig = GRADCHECK_CONFIG, seed: int = 0) -> dict:
    """Compare analytic gradients against central differences.

    Checks every composite op on small random inputs, then, as case
    ``full_forward_loss``, the full-mode forward and the training loss
    :func:`_loss` (both coefficients 1) over all model parameters. Every
    case runs through one finite-difference routine. Returns a report dict
    with PASS/FAIL, the worst offender, and per-op errors.
    """
    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name, (inputs, builder) in _gradcheck_cases(rng).items():
        errors[name] = _check_case(inputs, builder)

    model = FAENetModel(config, rng)
    samples = _gradcheck_systems(rng)
    systems = [s.system for s in samples]

    # Full-frame views and graphs do not depend on parameters, so they are
    # prepared once; each loss evaluation reruns only the net.
    plan = plan_views(systems, "full", E3)
    batch = _make_batch(systems, plan, config)
    names = list(model.params)

    def model_loss(values):
        model.params = dict(zip(names, values))
        energy, forces = _average_views(model, plan, batch, config.predict_forces)
        return _loss(samples, energy, forces, 1.0, 1.0)

    errors["full_forward_loss"] = _check_case([p.data for p in model.parameters()], model_loss)

    worst_op = max(errors, key=errors.get)
    max_err = errors[worst_op]
    return {
        "status": "PASS" if max_err < GRADCHECK_TOLERANCE else "FAIL",
        "tolerance": GRADCHECK_TOLERANCE,
        "max_rel_err": max_err,
        "worst_op": worst_op,
        "ops": errors,
        "seed": seed,
        "config_hash": config.config_hash(),
        "precision": "float64",
    }
