"""PCA frames, canonicalization, and frame-averaged prediction.

A frame of a system is a small set of rigid motions built from the
eigendecomposition of the position covariance. All elements share the
centroid translation and differ only in the signs of the eigenvector
columns of one rotation, so every canonical view is the same centred
structure turned by a different rotation U. Averaging any backbone's
predictions over those views makes the composite exactly invariant
(scalars) or equivariant (per-atom vectors) under the chosen group, at the
cost of one backbone evaluation per frame element instead of an integral
over the whole group.

Groups: E3 keeps all eight eigenvector sign choices, SE3 the four with
det +1, and Z_AXIS_2D the two in-plane rotations from the 2x2 covariance
of x and y with the z axis pinned upward.

Cell rows are lattice vectors: a canonical view rotates them with the
positions and never translates them.

A view is a rotation of its input system. :func:`plan_views` turns a batch
of systems and an ``fa_mode`` into one rotation per view; distances, and so
neighbour graphs, are the same in every view. Inference, training and
gradient checking in :mod:`faframe.faenet` build each system's graph once
and turn its edge vectors per view; the audit and the generic predictors
below average over the same views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .geometry import (
    E3,
    SE3,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    normalize_group,
    random_transform,
)

FRAME_GROUPS = (E3, SE3, Z_AXIS_2D)
FA_MODES = ("full", "stochastic", "none", "data_augment")

# Relative eigenvalue gap below which eigenvectors stop being well defined.
DEGENERACY_RTOL = 1e-6
DEGENERACY_FLOOR = 1e-12

# Column signs of the frame elements, in element order (first column's sign
# varies slowest). Z_AXIS_2D never flips the pinned z axis.
_SIGNS_3D = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
_SIGNS_2D = _SIGNS_3D[_SIGNS_3D[:, 2] > 0]


@dataclass(frozen=True)
class Frame:
    """Frame of a system: shared centroid translation, one rotation per element.

    ``rotations`` is the ``(k, 3, 3)`` stack of element rotations and
    ``eigenvalues`` the covariance eigenvalues in descending order (the
    third entry is zero for Z_AXIS_2D). A degenerate frame signals that some
    eigenvalue gap vanished; it carries a single identity element at the
    centroid and voids the invariance guarantees.
    """

    rotations: np.ndarray
    translation: np.ndarray
    eigenvalues: np.ndarray
    group: str
    degenerate: bool

    @property
    def elements(self) -> tuple[EuclideanTransform, ...]:
        """The elements as rigid motions, built on each access."""
        return tuple(EuclideanTransform(rotation, self.translation)
                     for rotation in self.rotations)


@dataclass(frozen=True)
class CanonicalView:
    """A system re-expressed in the axes of one frame element.

    Positions are ``(X - t) @ U`` and the cell rows ``cell @ U``: lattice
    vectors rotate and never translate. The projected centroid sits at the
    origin and the position covariance is diagonal.
    """

    system: AtomicSystem
    transform: EuclideanTransform


def _canonical_sign(vector: np.ndarray) -> np.ndarray:
    """Flip a vector so its largest-magnitude entry (first on ties) is >= 0."""
    index = int(np.argmax(np.abs(vector)))
    if vector[index] < 0:
        return -vector
    return vector


def _relative_gap(eigenvalues_desc: np.ndarray) -> float:
    gaps = -np.diff(eigenvalues_desc)
    scale = max(float(eigenvalues_desc[0]), DEGENERACY_FLOOR)
    return float(gaps.min() / scale)


def compute_frame(system: AtomicSystem, group: str = E3) -> Frame:
    """Build the PCA frame of a system for group E3, SE3, or Z_AXIS_2D.

    One sign-fixed eigenvector basis is validated as a rigid motion; every
    element is that basis with some columns negated, which is exact, so the
    one check covers them all. SE3 and Z_AXIS_2D keep the sign choices that
    give det +1.
    """
    group = normalize_group(group)
    if group not in FRAME_GROUPS:
        raise ValueError(f"frames are defined for {FRAME_GROUPS}, not {group!r}")

    positions = system.positions
    centroid = positions.mean(axis=0)
    centered = positions - centroid
    planar = group == Z_AXIS_2D
    if planar:
        centered = centered[:, :2]
    values, vectors = np.linalg.eigh(centered.T @ centered)
    values = values[::-1]
    vectors = vectors[:, ::-1]
    eigenvalues = np.append(values, 0.0) if planar else values.copy()
    if _relative_gap(values) < DEGENERACY_RTOL:
        return Frame(np.eye(3)[None], centroid, eigenvalues, group, True)

    axes = [_canonical_sign(vectors[:, k]) for k in range(vectors.shape[1])]
    if planar:
        axes = [np.append(axis, 0.0) for axis in axes] + [np.array([0.0, 0.0, 1.0])]
    base = EuclideanTransform(np.column_stack(axes), centroid)
    signs = _SIGNS_2D if planar else _SIGNS_3D
    if group != E3:
        # det(base * s) = det(base) * prod(s)
        signs = signs[signs.prod(axis=1) * base.det > 0]
    return Frame(base.rotation * signs[:, None, :], centroid, eigenvalues, group, False)


def _turned(system: AtomicSystem, origin: np.ndarray, rotation: np.ndarray) -> AtomicSystem:
    """Positions ``(X - origin) @ rotation``; cell rows ``cell @ rotation``."""
    cell = None if system.cell is None else system.cell @ rotation
    return AtomicSystem((system.positions - origin) @ rotation, system.atomic_numbers, cell,
                        system.pbc)


def canonicalize(system: AtomicSystem, element: EuclideanTransform) -> CanonicalView:
    """Project a system into the axes of one frame element."""
    return CanonicalView(_turned(system, element.translation, element.rotation), element)


@dataclass(frozen=True)
class ViewPlan:
    """The views a backbone evaluates for a batch of systems.

    View ``i`` is input system ``sample[i]`` with every vector
    right-multiplied by ``rotation[i]`` (a ``(V, 3, 3)`` stack), so
    ``rotation[i].T`` maps it back to the input pose. It enters its system's
    average with ``weight[i]``; the weights of each system sum to one.
    """

    sample: np.ndarray
    rotation: np.ndarray
    weight: np.ndarray
    num_systems: int


def plan_views(systems: list[AtomicSystem], fa_mode: str = "full", group: str = E3,
               rng: np.random.Generator | None = None) -> ViewPlan:
    """Plan the views of every system for one of the ``FA_MODES``.

    ``full`` takes every frame element, ``stochastic`` one drawn uniformly,
    ``none`` the system as given, and ``data_augment`` one random rigid
    motion of ``group``. The two random modes need ``rng`` and draw from it
    once per system, in input order.
    """
    group = normalize_group(group)
    if fa_mode not in FA_MODES:
        raise ValueError(f"fa_mode must be one of {FA_MODES}, got {fa_mode!r}")
    if fa_mode in ("stochastic", "data_augment") and rng is None:
        raise ValueError(f"{fa_mode} mode needs an rng")
    sample, rotation, weight = [], [], []
    for index, system in enumerate(systems):
        if fa_mode == "none":
            chosen = np.eye(3)[None]
        elif fa_mode == "data_augment":
            # A motion X @ U.T + t turns vectors by U.T; its translation
            # does not reach vectors.
            chosen = random_transform(group, rng).rotation.T[None]
        else:
            chosen = compute_frame(system, group).rotations
            if fa_mode == "stochastic":
                chosen = chosen[[int(rng.integers(len(chosen)))]]
        sample.extend([index] * len(chosen))
        rotation.extend(chosen)
        weight.extend([1.0 / len(chosen)] * len(chosen))
    return ViewPlan(np.array(sample, dtype=np.int64), np.array(rotation).reshape(-1, 3, 3),
                    np.array(weight), len(systems))


def _map_back(output, back: np.ndarray, kind: str):
    """Map one output through the representation named by ``kind``."""
    if kind == "invariant":
        return output
    if kind != "equivariant":
        raise ValueError(f"kind must be 'invariant' or 'equivariant', got {kind!r}")
    array = np.asarray(output, dtype=np.float64)
    if array.ndim == 0 or array.shape[-1] != 3:
        raise ShapeMismatch(
            f"equivariant outputs must be 3-vectors per row, got shape {array.shape}"
        )
    return array @ back


def uncanonicalize_output(output, element: EuclideanTransform, kind: str):
    """Map a model output from canonical axes back to the input pose.

    ``kind="invariant"`` returns the output untouched; ``kind="equivariant"``
    right-multiplies per-atom 3-vectors by U^T.
    """
    return _map_back(output, element.rotation.T, kind)


def _map_output(output, back: np.ndarray, kind: str):
    """Apply the output representation; (energy, forces) pairs are split."""
    if isinstance(output, tuple):
        if len(output) != 2:
            raise ShapeMismatch(f"expected (energy, forces) pair, got {len(output)} items")
        energy, forces = output
        if forces is None:
            return (energy, None)
        return (energy, _map_back(forces, back, "equivariant"))
    return _map_back(output, back, kind)


def _average(model, system: AtomicSystem, plan: ViewPlan, kind: str):
    """Evaluate ``model`` on every canonical view of a one-system plan and average."""
    centroid = system.positions.mean(axis=0)
    outputs = [_map_output(model(_turned(system, centroid, rotation)), rotation.T, kind)
               for rotation in plan.rotation]
    if isinstance(outputs[0], tuple):
        energies, forces = zip(*outputs)
        return (float(np.mean(energies)), None if forces[0] is None else np.mean(forces, axis=0))
    if np.ndim(outputs[0]) == 0:
        return float(np.mean(outputs))
    return np.mean(outputs, axis=0)


def full_fa_predict(model, system: AtomicSystem, group: str = E3, kind: str = "invariant"):
    """Average ``model`` over every canonical view of the system.

    ``model`` maps an AtomicSystem to a scalar, an array, or an
    (energy, forces) pair. Scalars and arrays are mapped back through the
    representation named by ``kind``; pairs always treat the energy as
    invariant and the forces as equivariant.
    """
    return _average(model, system, plan_views([system], "full", group), kind)


def stochastic_fa_predict(
    model,
    system: AtomicSystem,
    group: str = E3,
    kind: str = "invariant",
    rng: np.random.Generator | None = None,
):
    """Evaluate ``model`` on one uniformly sampled canonical view."""
    if rng is None:
        rng = np.random.default_rng()
    return _average(model, system, plan_views([system], "stochastic", group, rng), kind)
