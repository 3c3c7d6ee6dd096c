"""PCA frames, canonicalization, and frame-averaged prediction.

A frame of a system is a small set of rigid motions built from the
eigendecomposition of the position covariance. Averaging any backbone's
predictions over the canonical views selected by the frame makes the
composite exactly invariant (scalars) or equivariant (per-atom vectors)
under the chosen group, at the cost of one backbone evaluation per frame
element instead of an integral over the whole group.

Groups: E3 keeps all eight eigenvector sign choices, SE3 the four with
det +1, and Z_AXIS_2D the two in-plane rotations from the 2x2 covariance
of x and y with the z axis pinned upward.

The view plan lives here too: :func:`plan_views` turns a batch of systems
and an ``fa_mode`` into the views a backbone evaluates and the rotations
that map each view's vector outputs back to its input pose. Inference,
training and gradient checking in :mod:`faframe.faenet`, the audit, and
the generic predictors below all average over such a plan.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .geometry import (
    E3,
    SE3,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    apply_transform,
    normalize_group,
    random_transform,
)

FRAME_GROUPS = (E3, SE3, Z_AXIS_2D)
FA_MODES = ("full", "stochastic", "none", "data_augment")

# Relative eigenvalue gap below which eigenvectors stop being well defined.
DEGENERACY_RTOL = 1e-6
DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class Frame:
    """Frame of a system: shared centroid translation, one rotation per element.

    ``eigenvalues`` are the covariance eigenvalues in descending order (the
    third entry is zero for Z_AXIS_2D). A degenerate frame signals that some
    eigenvalue gap vanished; it carries a single identity element at the
    centroid and voids the invariance guarantees.
    """

    elements: tuple[EuclideanTransform, ...]
    eigenvalues: np.ndarray
    group: str
    degenerate: bool

    @property
    def translation(self) -> np.ndarray:
        return self.elements[0].translation


@dataclass(frozen=True)
class CanonicalView:
    """A system re-expressed in the axes of one frame element.

    Positions are ``(X - t) @ U`` and the cell rows are mapped the same way,
    so the projected centroid sits at the origin and the position covariance
    is diagonal.
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
    """Build the PCA frame of a system for group E3, SE3, or Z_AXIS_2D."""
    group = normalize_group(group)
    if group not in FRAME_GROUPS:
        raise ValueError(f"frames are defined for {FRAME_GROUPS}, not {group!r}")

    positions = system.positions
    centroid = positions.mean(axis=0)
    centered = positions - centroid

    if group == Z_AXIS_2D:
        cov = centered[:, :2].T @ centered[:, :2]
        values, vectors = np.linalg.eigh(cov)
        values = values[::-1]
        vectors = vectors[:, ::-1]
        eigenvalues = np.array([values[0], values[1], 0.0])
        degenerate = _relative_gap(values) < DEGENERACY_RTOL
        if degenerate:
            return Frame((EuclideanTransform(np.eye(3), centroid),), eigenvalues, group, True)
        axis1 = np.append(_canonical_sign(vectors[:, 0]), 0.0)
        axis2 = np.append(_canonical_sign(vectors[:, 1]), 0.0)
        axis3 = np.array([0.0, 0.0, 1.0])
        elements = []
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                rotation = np.column_stack((s1 * axis1, s2 * axis2, axis3))
                if np.linalg.det(rotation) > 0:
                    elements.append(EuclideanTransform(rotation, centroid))
        return Frame(tuple(elements), eigenvalues, group, False)

    cov = centered.T @ centered
    values, vectors = np.linalg.eigh(cov)
    values = values[::-1]
    vectors = vectors[:, ::-1]
    degenerate = _relative_gap(values) < DEGENERACY_RTOL
    if degenerate:
        return Frame((EuclideanTransform(np.eye(3), centroid),), values.copy(), group, True)

    axes = [_canonical_sign(vectors[:, k]) for k in range(3)]
    elements = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                rotation = np.column_stack((s1 * axes[0], s2 * axes[1], s3 * axes[2]))
                if group == SE3 and np.linalg.det(rotation) < 0:
                    continue
                elements.append(EuclideanTransform(rotation, centroid))
    return Frame(tuple(elements), values.copy(), group, False)


def canonicalize(system: AtomicSystem, element: EuclideanTransform) -> CanonicalView:
    """Project a system into the axes of one frame element."""
    rotation = element.rotation
    translation = element.translation
    positions = (system.positions - translation) @ rotation
    cell = None
    if system.cell is not None:
        cell = (system.cell - translation) @ rotation
    projected = AtomicSystem(
        positions=positions,
        atomic_numbers=system.atomic_numbers,
        cell=cell,
        pbc=system.pbc,
    )
    return CanonicalView(system=projected, transform=element)


@dataclass(frozen=True)
class ViewPlan:
    """The views a backbone evaluates for a batch of systems.

    View ``i`` belongs to input system ``sample[i]`` and enters that
    system's average with ``weight[i]``; the weights of each system sum to
    one. Right-multiplying the view's per-atom vectors by ``back[i]``
    returns them to the input pose, and ``None`` stands for the identity.
    """

    views: tuple[AtomicSystem, ...]
    back: tuple[np.ndarray | None, ...]
    sample: np.ndarray
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
    views, back, sample, weight = [], [], [], []
    for index, system in enumerate(systems):
        if fa_mode == "none":
            chosen = [(system, None)]
        elif fa_mode == "data_augment":
            transform = random_transform(group, rng)
            # The augmented view's vectors return to the input pose through
            # the inverse rotation U^T, i.e. right-multiplied by U.
            chosen = [(apply_transform(system, transform), transform.rotation)]
        else:
            elements = compute_frame(system, group).elements
            if fa_mode == "stochastic":
                elements = [elements[int(rng.integers(len(elements)))]]
            # uncanonicalization right-multiplies by U^T
            chosen = [(canonicalize(system, el).system, el.rotation.T) for el in elements]
        for view, rotation in chosen:
            views.append(view)
            back.append(rotation)
            sample.append(index)
            weight.append(1.0 / len(chosen))
    return ViewPlan(tuple(views), tuple(back), np.array(sample, dtype=np.int64),
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


def _average(model, plan: ViewPlan, kind: str):
    """Evaluate ``model`` on every view of a one-system plan and average."""
    outputs = [_map_output(model(view), back, kind) for view, back in zip(plan.views, plan.back)]
    first = outputs[0]
    if isinstance(first, tuple):
        energies = [o[0] for o in outputs]
        forces = [o[1] for o in outputs]
        mean_forces = None
        if forces[0] is not None:
            mean_forces = np.mean(np.stack(forces), axis=0)
        return (float(np.mean(energies)), mean_forces)
    if np.ndim(first) == 0:
        return float(np.mean(outputs))
    return np.mean(np.stack(outputs), axis=0)


def full_fa_predict(model, system: AtomicSystem, group: str = E3, kind: str = "invariant"):
    """Average ``model`` over every canonical view of the system.

    ``model`` maps an AtomicSystem to a scalar, an array, or an
    (energy, forces) pair. Scalars and arrays are mapped back through the
    representation named by ``kind``; pairs always treat the energy as
    invariant and the forces as equivariant.
    """
    return _average(model, plan_views([system], "full", group), kind)


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
    return _average(model, plan_views([system], "stochastic", group, rng), kind)


def frame_to_text(frame: Frame) -> str:
    """Serialize a frame to plain text.

    Line 1: ``group <name>``; line 2: ``degenerate <T|F>``; line 3 the
    centroid translation; line 4 the descending eigenvalues; then one line
    of nine row-major rotation entries per element.
    """
    out = io.StringIO()
    out.write(f"group {frame.group}\n")
    out.write(f"degenerate {'T' if frame.degenerate else 'F'}\n")
    out.write("translation " + " ".join(f"{v:.17g}" for v in frame.translation) + "\n")
    out.write("eigenvalues " + " ".join(f"{v:.17g}" for v in frame.eigenvalues) + "\n")
    for element in frame.elements:
        out.write("element " + " ".join(f"{v:.17g}" for v in element.rotation.ravel()) + "\n")
    return out.getvalue()


def frame_from_text(text: str) -> Frame:
    """Rebuild a frame serialized by :func:`frame_to_text`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 5:
        raise ValueError("frame text needs group, degenerate, translation, eigenvalues, elements")
    group = normalize_group(lines[0].split()[1])
    degenerate = lines[1].split()[1].upper() == "T"
    translation = np.array([float(v) for v in lines[2].split()[1:]])
    eigenvalues = np.array([float(v) for v in lines[3].split()[1:]])
    elements = []
    for line in lines[4:]:
        values = [float(v) for v in line.split()[1:]]
        rotation = np.array(values).reshape(3, 3)
        elements.append(EuclideanTransform(rotation, translation))
    return Frame(tuple(elements), eigenvalues, group, degenerate)
