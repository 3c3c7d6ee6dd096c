"""The benchmark's workloads: seeded inputs, one operation, its correctness check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs are a pure function of the
workload seed and the operation index, so operation ``i`` of seed ``s``
does the same work, and records the same counts, on every run.

Each workload holds its per-operation cost fixed (one molecule size, one
batch composition, two families of equal cost, one crystal size). The
latency median and the rank-based tail are order statistics over however
many operations fit in the run; with a fixed cost they do not jump between
size classes when that number changes.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faframe import audit, expressivity, faenet, frames, geometry, xyz
from faframe.diffmath import AdamW
from faframe.errors import CutoffExceedsImageRange
from faframe.faenet import FAENetConfig, FAENetModel, TrainSample
from faframe.geometry import E3, AtomicSystem


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


# -- molecules --------------------------------------------------------------

MOLECULE_ELEMENTS = (1, 6, 7, 8)
# Sites of a cubic grid, jittered: nearest neighbours end up 1.15-1.55 A apart.
GRID_SPACING = 1.35
GRID_JITTER = 0.1
_GRID = np.stack(np.meshgrid(*[np.arange(-6, 7)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
# The blob is an ellipsoid, so the covariance eigenvalues are well apart and
# every frame is far from degenerate.
_BLOB_AXES = np.array([1.0, 0.8, 0.6])


def make_molecule(rng: np.random.Generator, n: int) -> AtomicSystem:
    """A compact n-atom molecule: the grid sites nearest a random centre."""
    centre = rng.uniform(0.0, 1.0, 3)
    key = (((_GRID - centre) / _BLOB_AXES) ** 2).sum(axis=1) + rng.uniform(0.0, 0.05, len(_GRID))
    sites = _GRID[np.argsort(key)[:n]] * GRID_SPACING
    positions = sites + rng.uniform(-GRID_JITTER, GRID_JITTER, (n, 3))
    system = AtomicSystem(positions, rng.choice(MOLECULE_ELEMENTS, n))
    if frames.compute_frame(system, E3).degenerate:
        raise RuntimeError("generated molecule has a degenerate frame")
    return system


# -- crystals ---------------------------------------------------------------

# 0.048 atoms per cubic angstrom: 64 atoms fill an 11 A cell, 512 a 22 A one.
CRYSTAL_DENSITY = 0.048
CRYSTAL_ELEMENTS = (8, 12, 13, 14, 26)
CRYSTAL_CUTOFF = 6.0
CRYSTAL_MAX_NEIGHBORS = 40


def make_crystal(rng: np.random.Generator, n: int) -> AtomicSystem:
    """A fully periodic near-cubic crystal at uniform, uncentred fractional positions."""
    edge = (n / CRYSTAL_DENSITY) ** (1.0 / 3.0)
    cell = np.diag(np.full(3, edge)) + rng.uniform(-0.3, 0.3, (3, 3))
    positions = rng.uniform(0.0, 1.0, (n, 3)) @ cell
    return AtomicSystem(positions, rng.choice(CRYSTAL_ELEMENTS, n), cell=cell,
                        pbc=(True, True, True))


def reference_distances(system: AtomicSystem, cutoff: float, max_neighbors: int) -> np.ndarray:
    """Sorted edge distances of the radius graph, by brute force over 27 images.

    Independent of ``geometry``: every atom keeps its ``max_neighbors``
    nearest sources within the cutoff. Valid only for atoms inside the cell
    and a cell whose plane spacings all exceed the cutoff, which is checked.
    """
    cell = system.cell
    volume = abs(np.linalg.det(cell))
    spacings = [volume / np.linalg.norm(np.cross(cell[(i + 1) % 3], cell[(i + 2) % 3]))
                for i in range(3)]
    if min(spacings) <= cutoff:
        raise ValueError("cell too narrow for a 27-image reference")
    positions = system.positions
    n = len(positions)
    blocks = []
    for offset in np.array(np.meshgrid(*[(-1, 0, 1)] * 3, indexing="ij")).reshape(3, -1).T:
        diff = positions[:, None, :] - positions[None, :, :] + offset @ cell
        dist = np.linalg.norm(diff, axis=-1)
        if not offset.any():
            np.fill_diagonal(dist, np.inf)
        blocks.append(dist)
    dist = np.concatenate(blocks, axis=1)
    dist[dist >= cutoff] = np.inf
    dist.sort(axis=1)
    kept = dist[:, :max_neighbors]
    return np.sort(kept[np.isfinite(kept)])


def _same_distances(graph, expected: np.ndarray, what: str):
    got = np.sort(graph.distances)
    if got.shape != expected.shape:
        raise CheckFailed(f"{what}: {got.size} edges, reference has {expected.size}")
    gap = float(np.abs(got - expected).max(initial=0.0))
    if gap > 1e-9:
        raise CheckFailed(f"{what}: edge distances differ from the reference by {gap:.3e} A")


# -- workloads --------------------------------------------------------------

class Workload:
    """One workload; subclasses fill in the hooks."""

    name = ""
    why = ""

    def setup(self, seed: int, workdir: Path):
        """Build everything an operation needs; includes one warm-up operation."""
        raise NotImplementedError

    def inputs(self, state, i: int):
        """Inputs of operation ``i``, made outside the timed region."""
        raise NotImplementedError

    def op(self, state, inputs):
        """The timed operation."""
        raise NotImplementedError

    def check(self, state, inputs, output):
        """Raise CheckFailed if the output is wrong."""

    def finish(self, state) -> list[str]:
        """Checks after the loop, outside every operation; returns problems."""
        return []

    def facts(self, state) -> dict:
        """Run facts worth keeping beside the metrics."""
        return {}


# Default config with a force head: the 5.42M-parameter reference model.
MODEL_CONFIG = FAENetConfig(predict_forces=True)

MOL_INFER_ATOMS = 16
MOL_INFER_POOL = 2
# Criterion 1's bounds: energy within 1e-9 relative (1e-6 for the audit's
# mean gap), forces within 1e-6 * (1 + max |F|).
ENERGY_RTOL = 1e-9
FORCE_BOUND_SCALE = 1e-6


def force_bound(forces: np.ndarray) -> float:
    return FORCE_BOUND_SCALE * (1.0 + float(np.abs(forces).max()))


@dataclass
class MolInferState:
    seed: int
    model: FAENetModel
    pool: list
    bases: dict = field(default_factory=dict)
    audit: dict | None = None

    def base(self, j: int):
        if j not in self.bases:
            self.bases[j] = faenet.forward(self.model, self.pool[j], fa_mode="full", group=E3)
        return self.bases[j]


class MolInfer(Workload):
    name = "mol_infer"
    why = ("full 8-view frame-averaged forward of the default 5.42M-parameter model on a "
           "16-atom molecule: the backbone forward dominates; no backward, no optimizer")

    def setup(self, seed, workdir):
        model = FAENetModel(MODEL_CONFIG, np.random.default_rng([seed, 0]))
        rng = np.random.default_rng([seed, 1])
        state = MolInferState(seed, model, [make_molecule(rng, MOL_INFER_ATOMS)
                                            for _ in range(MOL_INFER_POOL)])
        state.base(0)  # warm-up: the untransformed reference of pool molecule 0
        return state

    def inputs(self, state, i):
        j = i % MOL_INFER_POOL
        motion = geometry.random_transform(E3, np.random.default_rng([state.seed, 2, i]))
        return j, motion, geometry.apply_transform(state.pool[j], motion)

    def op(self, state, inputs):
        return faenet.forward(state.model, inputs[2], fa_mode="full", group=E3)

    def check(self, state, inputs, output):
        j, motion, _ = inputs
        base = state.base(j)
        rel = abs(output.energy - base.energy) / max(abs(base.energy), 1e-12)
        if rel > ENERGY_RTOL:
            raise CheckFailed(f"energy differs from the untransformed prediction by {rel:.3e} relative")
        residual = float(np.abs(output.forces - base.forces @ motion.rotation.T).max())
        if residual > force_bound(base.forces):
            raise CheckFailed(f"forces miss the rotated reference by {residual:.3e}")

    def finish(self, state):
        report = audit.audit_model(state.model, state.pool, fa_mode="full", group=E3,
                                   num_transforms=1,
                                   rng=np.random.default_rng([state.seed, 3]))
        bases = [state.base(j) for j in range(MOL_INFER_POOL)]
        # audit metrics are in meV and meV/A
        energy_bound = 1e3 * 1e-6 * max(abs(b.energy) for b in bases)
        f_bound = 1e3 * max(force_bound(b.forces) for b in bases)
        problems = []
        if not report.rot_i <= energy_bound:
            problems.append(f"audit rot_i {report.rot_i:.3e} meV over {energy_bound:.3e}")
        if not report.f_rot_e <= f_bound:
            problems.append(f"audit f_rot_e {report.f_rot_e:.3e} meV/A over {f_bound:.3e}")
        state.audit = report.to_dict()
        return problems

    def facts(self, state):
        return {"pool_atoms": [s.num_atoms for s in state.pool], "audit": state.audit}


# Mostly small molecules keep a step near 1.3 s, so a run holds some 18
# steps; the rank-based tail then never falls back to the run's maximum.
TRAIN_SIZES = (8, 9, 10, 11, 12, 14, 16, 32)


@dataclass
class MolTrainState:
    seed: int
    model: FAENetModel
    optimizer: AdamW
    losses: list = field(default_factory=list)


class MolTrain(Workload):
    name = "mol_train"
    why = ("one AdamW train_step with forces, stochastic E3 frames, on 8 molecules of "
           "8-32 atoms: the backbone at 1/8 of the views plus the backward pass")

    def setup(self, seed, workdir):
        model = FAENetModel(MODEL_CONFIG, np.random.default_rng([seed, 0]))
        state = MolTrainState(seed, model, AdamW(model.parameters()))
        self.op(state, self.inputs(state, -1))  # warm-up step
        state.losses.clear()
        return state

    def inputs(self, state, i):
        rng = np.random.default_rng([state.seed, 1, i + 1])
        batch = []
        for n in TRAIN_SIZES:
            system = make_molecule(rng, n)
            batch.append(TrainSample(system, float(rng.normal()), rng.normal(0.0, 0.1, (n, 3))))
        return batch, np.random.default_rng([state.seed, 2, i + 1])

    def op(self, state, inputs):
        batch, rng = inputs
        return faenet.train_step(state.model, batch, state.optimizer, force_coeff=1.0,
                                 fa_mode="stochastic", group=E3, rng=rng)

    def check(self, state, inputs, output):
        if not math.isfinite(output):
            raise CheckFailed(f"loss {output}")
        state.losses.append(output)

    def facts(self, state):
        return {"final_loss": state.losses[-1] if state.losses else None}


# Two schedule entries of near-equal cost (6 and 5 atoms); rotsym L=5 and 7
# cost 1.4x and 1.6x as much and would make the latency distribution bimodal.
EXPRESSIVITY_SCHEDULE = (("kchains", 4), ("rotsym", 3))
# One fifth of run_benchmark's defaults (150 epochs, 100 test transforms per
# class), training and testing alike, so the mix of training steps and
# single-structure forwards is the defaults' own. A default-size seed takes
# about 5 s: a run would hold only four, and its median and tail would move
# with every burst of load on a shared host. At this size an operation takes
# about 1 s and a run holds some twenty.
EXPRESSIVITY_EPOCHS = 30
EXPRESSIVITY_TEST_TRANSFORMS = 20
# Test copies scored per operation, both classes together.
EXPRESSIVITY_TEST_COPIES = 2 * EXPRESSIVITY_TEST_TRANSFORMS
# Criteria 8 and 9 want most seeds perfect, and tolerate the seeds whose
# training stalls in the gate saddle. A low accuracy is therefore recorded
# and reported, not counted as a failed operation; frame equivariance itself
# is checked exactly by mol_infer.
EXPRESSIVITY_GOOD_ACCURACY = 0.95


@dataclass
class ExpressivityState:
    seed: int
    accuracies: list = field(default_factory=list)


class Expressivity(Workload):
    name = "expressivity"
    why = ("one seed of run_benchmark (30 epochs, 20 test copies per class, stochastic "
           "frames, tiny model) on 5-6 atom shapes: per-call frame/graph overhead dominates")

    def setup(self, seed, workdir):
        for family, parameter in EXPRESSIVITY_SCHEDULE:  # warm-up: every code path, briefly
            expressivity.run_benchmark(family, parameter, num_seeds=1, epochs=10,
                                       test_transforms=10, seed=seed)
        return ExpressivityState(seed)

    def inputs(self, state, i):
        family, parameter = EXPRESSIVITY_SCHEDULE[i % len(EXPRESSIVITY_SCHEDULE)]
        return family, parameter, state.seed * 100_000 + i

    def op(self, state, inputs):
        family, parameter, seed = inputs
        return expressivity.run_benchmark(family, parameter, num_seeds=1,
                                          epochs=EXPRESSIVITY_EPOCHS,
                                          test_transforms=EXPRESSIVITY_TEST_TRANSFORMS, seed=seed)

    def check(self, state, inputs, output):
        family, parameter, seed = inputs
        got = (output.family, output.parameter, output.fa_mode, output.group, output.epochs,
               len(output.accuracies), output.seed)
        if got != (family, parameter, "stochastic", E3, EXPRESSIVITY_EPOCHS, 1, seed):
            raise CheckFailed(f"result describes {got}, not the run asked for")
        if not output.min_alignment_residual > expressivity.ALIGNMENT_THRESHOLD:
            raise CheckFailed("the two classes are not certified rigidly distinct")
        accuracy = output.accuracies[0]
        correct = accuracy * EXPRESSIVITY_TEST_COPIES
        if not 0.0 <= accuracy <= 1.0 or abs(correct - round(correct)) > 1e-9:
            raise CheckFailed(f"accuracy {accuracy} is not a share of "
                              f"{EXPRESSIVITY_TEST_COPIES} test copies")
        state.accuracies.append(accuracy)

    def facts(self, state):
        return {"accuracies": state.accuracies,
                "seeds_below_0.95": sum(a < EXPRESSIVITY_GOOD_ACCURACY for a in state.accuracies)}


@dataclass
class CrystalState:
    paths: list
    systems: list


class CrystalGraph(Workload):
    """Parse a crystal, build its periodic radius graph and frame, write it back."""

    name = "crystal_graph"
    why = ("parse a 256-atom periodic crystal, build its 125-image dense radius graph, "
           "frame and XYZ text: the periodic geometry and xyz paths, no backbone")
    sizes = (256, 256, 256, 256)

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 0])
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        paths, systems = [], []
        for k, n in enumerate(self.sizes):
            systems.append(make_crystal(rng, n))
            paths.append(workdir / f"crystal{k}.xyz")
            xyz.write_xyz(paths[-1], systems[-1])
        state = CrystalState(paths, systems)
        self.op(state, self.inputs(state, 0))  # warm-up
        return state

    def inputs(self, state, i):
        return i % len(state.paths)

    def _read_graph_frame(self, state, k):
        system = xyz.read_xyz_blocks(state.paths[k])[0][0]
        graph = geometry.build_radius_graph(system, CRYSTAL_CUTOFF, CRYSTAL_MAX_NEIGHBORS)
        return system, graph, frames.compute_frame(system, E3)

    def op(self, state, k):
        system, graph, frame = self._read_graph_frame(state, k)
        return system, graph, frame, xyz.format_xyz(system)

    def _check_input(self, state, k, system, graph, frame):
        expected = state.systems[k]
        if (np.abs(system.positions - expected.positions).max() > 1e-9
                or np.abs(system.cell - expected.cell).max() > 1e-9):
            raise CheckFailed("parsed crystal differs from the one written")
        if frame.degenerate or len(frame.elements) != 8:
            raise CheckFailed("crystal frame is degenerate")
        _same_distances(graph, reference_distances(expected, CRYSTAL_CUTOFF,
                                                   CRYSTAL_MAX_NEIGHBORS), "input graph")

    def check(self, state, k, output):
        system, graph, frame, text = output
        self._check_input(state, k, system, graph, frame)
        if text != state.paths[k].read_text():
            raise CheckFailed("format_xyz does not reproduce the parsed file")


class CrystalPrep(CrystalGraph):
    """Canonicalize a crystal into its 8 views and rebuild each view's graph."""

    name = "crystal_prep"
    # Not listed in BENCHMARK.json: every operation fails today, because
    # canonicalize translates the cell rows along with the centroid.
    why = ("crystal canonicalization into 8 views with a radius graph per view, "
           "64-512 atoms: the dense periodic scan, frames and xyz on large inputs")
    sizes = (64, 128, 256, 512)

    def op(self, state, k):
        system, graph, frame = self._read_graph_frame(state, k)
        views, view_graphs, errors = [], [], []
        for element in frame.elements:
            view = frames.canonicalize(system, element).system
            views.append(view)
            try:
                view_graphs.append(geometry.build_radius_graph(view, CRYSTAL_CUTOFF,
                                                               CRYSTAL_MAX_NEIGHBORS))
            except CutoffExceedsImageRange as error:
                errors.append(str(error))
        texts = [xyz.format_xyz(view) for view in views]
        return system, graph, frame, views, view_graphs, errors, texts

    def check(self, state, k, output):
        system, graph, frame, views, view_graphs, errors, _ = output
        self._check_input(state, k, system, graph, frame)
        volume = abs(np.linalg.det(system.cell))
        drifts = [abs(abs(np.linalg.det(view.cell)) - volume) / volume for view in views]
        moved = sum(drift > 1e-9 for drift in drifts)
        if errors or moved:
            raise CheckFailed(f"{moved}/{len(views)} canonical cells change |det| (up to "
                              f"{max(drifts):.3g} relative); {len(errors)}/{len(views)} view "
                              f"graphs raised CutoffExceedsImageRange")
        for view_graph in view_graphs:
            _same_distances(view_graph, np.sort(graph.distances), "view graph")


WORKLOADS = {w.name: w for w in (MolInfer(), MolTrain(), Expressivity(), CrystalGraph(),
                                 CrystalPrep())}
