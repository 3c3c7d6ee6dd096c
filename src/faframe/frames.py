"""PCA frames, canonicalization, and the view plan.

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

Frames are built a batch at a time: :func:`compute_frames` solves the
covariances of all its systems in one stacked eigendecomposition, and
:func:`compute_frame` is its one-system call. Likewise
:func:`canonical_views` turns a system by a whole stack of frame rotations
at once, and :func:`canonicalize` is its one-element call.

A view is a rotation of its input system. :func:`plan_views` frames a
batch of systems at once and picks one rotation per view for an
``fa_mode``; its :class:`ViewPlan` keeps the systems and the frames, so
each later step takes the plan alone. Distances, and so neighbour graphs,
are the same in every view. Inference, training and gradient checking in
:mod:`faframe.faenet` build a plan's graphs once and turn their edge
vectors per view; the audit and ``faframe canonicalize`` read plans.

:func:`compute_frame`, :func:`canonicalize`, :class:`CanonicalView` and
:attr:`Frame.elements` (each frame element as a validated
:class:`EuclideanTransform`) stay public because the benchmark harness
imports them by name; the package itself reads frames as rotation stacks.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .geometry import (
    E3,
    SE3,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    check_orthogonal,
    normalize_group,
    random_transforms,
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
        """The elements as rigid motions, built on each access from a
        rotation stack that is checked once."""
        check_orthogonal(self.rotations)
        return tuple(EuclideanTransform._checked(rotation, self.translation)
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


def compute_frame(system: AtomicSystem, group: str = E3) -> Frame:
    """The PCA frame of one system: :func:`compute_frames` of ``[system]``."""
    return compute_frames([system], group)[0]


def compute_frames(systems: Sequence[AtomicSystem], group: str = E3) -> list[Frame]:
    """Build the PCA frame of every system for group E3, SE3, or Z_AXIS_2D.

    Each system's centroid and covariance are its own; one stacked
    eigendecomposition then serves the whole call. Each eigenvector column is
    flipped so its largest-magnitude entry (first on ties) is >= 0, and the
    sign-fixed bases are validated together as rotations. Every element is a
    basis with some columns negated, which is exact, so that one check covers
    them all. SE3 and Z_AXIS_2D keep the sign choices that give det +1. A
    covariance that overflows float64 raises NonFiniteInput naming its system.
    """
    group = normalize_group(group)
    if group not in FRAME_GROUPS:
        raise ValueError(f"frames are defined for {FRAME_GROUPS}, not {group!r}")
    if not systems:
        return []

    planar = group == Z_AXIS_2D
    centroids, covariances = [], []
    # Finite positions can still overflow; an infinite covariance raises next.
    with np.errstate(over="ignore", invalid="ignore"):
        for system in systems:
            positions = system.positions
            centroid = positions.mean(axis=0)
            centered = positions - centroid
            if planar:
                centered = centered[:, :2]
            centroids.append(centroid)
            covariances.append(centered.T @ centered)
    covariances = np.array(covariances)
    finite = np.isfinite(covariances).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteInput(f"system {np.argmin(finite)}: the position covariance overflows "
                             f"float64; coordinates are too large to frame")
    values, vectors = np.linalg.eigh(covariances)
    values = values[:, ::-1]
    vectors = vectors[:, :, ::-1]
    gap = (-np.diff(values, axis=1)).min(axis=1) / np.maximum(values[:, 0], DEGENERACY_FLOOR)
    degenerate = gap < DEGENERACY_RTOL

    largest = np.abs(vectors).argmax(axis=1)[:, None, :]
    vectors = np.where(np.take_along_axis(vectors, largest, axis=1) < 0, -vectors, vectors)
    if planar:
        bases = np.zeros((len(systems), 3, 3))
        bases[:, :2, :2] = vectors
        bases[:, 2, 2] = 1.0
    else:
        bases = vectors
    dets = np.zeros(len(systems))
    dets[~degenerate] = check_orthogonal(bases[~degenerate])
    table = _SIGNS_2D if planar else _SIGNS_3D

    frames = []
    for k, centroid in enumerate(centroids):
        eigenvalues = np.append(values[k], 0.0) if planar else values[k].copy()
        if degenerate[k]:
            frames.append(Frame(np.eye(3)[None], centroid, eigenvalues, group, True))
            continue
        signs = table
        if group != E3:
            # det(base * s) = det(base) * prod(s)
            signs = signs[signs.prod(axis=1) * dets[k] > 0]
        frames.append(Frame(bases[k] * signs[:, None, :], centroid, eigenvalues, group, False))
    return frames


def canonical_views(system: AtomicSystem, origin: np.ndarray,
                    rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The system seen in the axes of each rotation of a ``(k, 3, 3)`` stack.

    Returns the ``(k, n, 3)`` view positions ``(X - origin) @ U`` and the
    ``(k, 3, 3)`` view cells ``cell @ U``, or ``None`` for a system without a
    cell: lattice vectors rotate and never translate.
    """
    cells = None if system.cell is None else system.cell @ rotations
    return (system.positions - origin) @ rotations, cells


def canonicalize(system: AtomicSystem, element: EuclideanTransform) -> CanonicalView:
    """Project a system into the axes of one frame element: the one-element
    call of :func:`canonical_views`."""
    positions, cells = canonical_views(system, element.translation, element.rotation[None])
    view = AtomicSystem(positions[0], system.atomic_numbers,
                        None if cells is None else cells[0], system.pbc)
    return CanonicalView(view, element)


@dataclass(frozen=True)
class ViewPlan:
    """The views a backbone evaluates for a batch of systems.

    View ``i`` is ``systems[sample[i]]`` with every vector right-multiplied
    by ``rotation[i]`` (a ``(V, 3, 3)`` stack), so ``rotation[i].T`` maps it
    back to the input pose. It enters its system's average with
    ``weight[i]``; the weights of each system sum to one. ``frames`` holds
    each system's whole :class:`Frame` in ``full`` and ``stochastic`` mode,
    and is None in the modes that frame nothing.
    """

    systems: tuple[AtomicSystem, ...]
    sample: np.ndarray
    rotation: np.ndarray
    weight: np.ndarray
    frames: list[Frame] | None


def check_fa_mode(fa_mode: str) -> None:
    """Raise ValueError unless ``fa_mode`` is one of ``FA_MODES``."""
    if fa_mode not in FA_MODES:
        raise ValueError(f"fa_mode must be one of {FA_MODES}, got {fa_mode!r}")


def plan_views(systems: Sequence[AtomicSystem], fa_mode: str = "full", group: str = E3,
               rng: np.random.Generator | None = None) -> ViewPlan:
    """Plan the views of every system for one of the ``FA_MODES``.

    ``full`` takes every frame element, ``stochastic`` one drawn uniformly,
    ``none`` the system as given, and ``data_augment`` one random rigid
    motion of ``group``. The two random modes need ``rng`` and draw from it
    once per system, in input order.
    """
    group = normalize_group(group)
    check_fa_mode(fa_mode)
    if fa_mode in ("stochastic", "data_augment") and rng is None:
        raise ValueError(f"{fa_mode} mode needs an rng")
    frames = compute_frames(systems, group) if fa_mode in ("full", "stochastic") else None
    if fa_mode == "none":
        stacks = [np.eye(3)[None]] * len(systems)
    elif fa_mode == "data_augment":
        # A motion X @ U.T + t turns vectors by U.T; its translation does
        # not reach vectors.
        rotations, _ = random_transforms(group, rng, len(systems))
        stacks = list(np.swapaxes(rotations, 1, 2)[:, None])
    else:
        stacks = [frame.rotations for frame in frames]
        if fa_mode == "stochastic":
            stacks = [chosen[[int(rng.integers(len(chosen)))]] for chosen in stacks]
    sizes = np.array([len(chosen) for chosen in stacks], dtype=np.int64)
    # C order, whatever the stacks' layout: products with it round by layout.
    rotation = np.ascontiguousarray(np.concatenate(stacks)) if stacks else np.empty((0, 3, 3))
    return ViewPlan(tuple(systems), np.arange(len(systems)).repeat(sizes), rotation,
                    (1.0 / sizes).repeat(sizes), frames)
