"""Atomic systems, Euclidean transforms, and periodic radius graphs.

Conventions used throughout the package:

- positions are (n, 3) float64 arrays in angstrom, one row per atom
- the rows of a cell matrix are the lattice vectors
- a transform g = (U, t) acts on row-vector positions as ``X @ U.T + t``;
  cell rows are lattice vectors, so g rotates them, ``cell @ U.T``, and
  never translates them
- periodic image offsets are integer triples with entries in {-1, 0, 1}
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffExceedsImageRange, NonFiniteInput, UnknownElement

ORTHONORMAL_TOL = 1e-10
CELL_DET_TOL = 1e-10

# Random rigid motions draw each translation component uniformly from
# [-TRANSLATION_RANGE, TRANSLATION_RANGE] angstrom.
TRANSLATION_RANGE = 10.0

E3 = "E3"
SE3 = "SE3"
SO3 = "SO3"
T3 = "T3"
Z_AXIS_2D = "Z_AXIS_2D"

TRANSFORM_GROUPS = (E3, SE3, SO3, T3, Z_AXIS_2D)


def normalize_group(group: str) -> str:
    """Map a case-insensitive group name onto its canonical token."""
    token = str(group).strip().upper()
    if token in TRANSFORM_GROUPS:
        return token
    raise ValueError(f"unknown group {group!r}; expected one of {TRANSFORM_GROUPS}")


def _atomic_numbers(values) -> np.ndarray:
    """Atomic numbers as int64; whole-valued floats pass, nothing is truncated."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":  # bools are kind "b"
        raise UnknownElement(
            f"atomic numbers must be integers, got {raw.dtype} values {raw.ravel()[:3].tolist()}"
        )
    if raw.dtype.kind == "f":
        fractional = raw[~np.isfinite(raw) | (raw != np.round(raw))]
        if fractional.size:
            raise UnknownElement(f"atomic number {fractional[0].item()!r} is not an integer")
    below = raw[raw < 1]
    if below.size:
        raise UnknownElement(f"atomic number {below[0].item()!r} is below 1")
    return raw.astype(np.int64, copy=False)


@dataclass(frozen=True)
class AtomicSystem:
    """A molecule or crystal snapshot.

    Parameters
    ----------
    positions : (n, 3) array
        Cartesian coordinates in angstrom.
    atomic_numbers : (n,) int array
        One entry >= 1 per atom.
    cell : (3, 3) array, optional
        Rows are the lattice vectors. Required whenever any pbc flag is set.
    pbc : length-3 sequence of bool
        Periodicity along each lattice vector. Defaults to fully aperiodic.
    """

    positions: np.ndarray
    atomic_numbers: np.ndarray
    cell: np.ndarray | None = None
    pbc: tuple[bool, bool, bool] = (False, False, False)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise ValueError(f"positions must be (n, 3) with n >= 1, got {positions.shape}")
        if not np.isfinite(positions).all():
            raise NonFiniteInput("positions contain NaN or inf")
        numbers = _atomic_numbers(self.atomic_numbers)
        if numbers.shape != (positions.shape[0],):
            raise ValueError(
                f"atomic_numbers shape {numbers.shape} does not match {positions.shape[0]} atoms"
            )
        pbc = tuple(bool(flag) for flag in self.pbc)
        if len(pbc) != 3:
            raise ValueError("pbc must have exactly three flags")
        cell = self.cell
        if cell is not None:
            cell = np.asarray(cell, dtype=np.float64)
            if cell.shape != (3, 3):
                raise ValueError(f"cell must be (3, 3), got {cell.shape}")
            if not np.isfinite(cell).all():
                raise NonFiniteInput("cell contains NaN or inf")
        if any(pbc) and cell is None:
            raise ValueError("periodic flags set but no cell given")
        if any(pbc) and abs(np.linalg.det(cell)) <= CELL_DET_TOL:
            raise ValueError("cell is singular along a periodic direction")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "atomic_numbers", numbers)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "pbc", pbc)

    @property
    def num_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def is_periodic(self) -> bool:
        return any(self.pbc)


@dataclass(frozen=True)
class EuclideanTransform:
    """A rigid motion g = (U, t): orthogonal matrix plus translation.

    The action on positions is ``X @ U.T + t``; det(U) may be -1, in which
    case the motion includes a reflection.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=np.float64)
        translation = np.asarray(self.translation, dtype=np.float64)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be (3, 3), got {rotation.shape}")
        if translation.shape != (3,):
            raise ValueError(f"translation must be (3,), got {translation.shape}")
        gram_error = np.abs(rotation.T @ rotation - np.eye(3)).max()
        if gram_error > ORTHONORMAL_TOL:
            raise ValueError(f"rotation is not orthogonal (max |U^T U - I| = {gram_error:.3e})")
        det = np.linalg.det(rotation)
        if abs(abs(det) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError(f"rotation determinant {det} is not +/-1")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.rotation))

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    def compose(self, other: "EuclideanTransform") -> "EuclideanTransform":
        """Return the transform equal to applying ``other`` first, then self."""
        return EuclideanTransform(
            rotation=self.rotation @ other.rotation,
            translation=other.translation @ self.rotation.T + self.translation,
        )

    def inverse(self) -> "EuclideanTransform":
        return EuclideanTransform(
            rotation=self.rotation.T,
            translation=-(self.translation @ self.rotation),
        )


def apply_transform(system: AtomicSystem, transform: EuclideanTransform) -> AtomicSystem:
    """Apply a rigid motion to a system.

    Positions move as points, ``X @ U.T + t``. Cell rows are lattice
    vectors, differences of positions, so they rotate, ``cell @ U.T``, and
    never translate: the moved crystal is the same crystal.
    """
    cell = None if system.cell is None else system.cell @ transform.rotation.T
    return AtomicSystem(transform.apply_points(system.positions), system.atomic_numbers, cell,
                        system.pbc)


def _haar_orthogonal(rng: np.random.Generator) -> np.ndarray:
    """Draw U uniformly from O(3); det is +1 or -1 with equal probability."""
    gauss = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(gauss)
    # Fixing the sign of R's diagonal makes the QR factor Haar-distributed.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_transform(group: str, rng: np.random.Generator) -> EuclideanTransform:
    """Sample a random transform from one of the supported groups.

    E3 draws Haar-uniform orthogonal matrices (reflections included), SE3 and
    SO3 restrict to det +1, T3 is translation-only, and Z_AXIS_2D rotates
    about the z axis. Translations are uniform in [-10, 10]^3 angstrom except
    for SO3, which is centered at the origin.
    """
    group = normalize_group(group)
    translation = rng.uniform(-TRANSLATION_RANGE, TRANSLATION_RANGE, size=3)
    if group == E3:
        rotation = _haar_orthogonal(rng)
    elif group in (SE3, SO3):
        rotation = _haar_orthogonal(rng)
        if np.linalg.det(rotation) < 0:
            rotation = rotation.copy()
            rotation[:, 0] = -rotation[:, 0]
        if group == SO3:
            translation = np.zeros(3)
    elif group == T3:
        rotation = np.eye(3)
    else:  # Z_AXIS_2D
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return EuclideanTransform(rotation=rotation, translation=translation)


def pbc_edge_vector(
    x_to: np.ndarray,
    x_from: np.ndarray,
    offset: np.ndarray,
    cell: np.ndarray | None,
) -> np.ndarray:
    """Relative vector (x_to - x_from) + offset @ cell.

    ``offset`` counts whole-cell shifts of the source image; with a zero
    offset this is the plain difference and the cell may be omitted.
    """
    x_to = np.asarray(x_to, dtype=np.float64)
    x_from = np.asarray(x_from, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    diff = x_to - x_from
    if np.any(offset != 0):
        if cell is None:
            raise ValueError("nonzero offset requires a cell")
        diff = diff + offset @ np.asarray(cell, dtype=np.float64)
    return diff


@dataclass(frozen=True)
class RadiusGraph:
    """Directed neighbor graph under a distance cutoff.

    Edge e points src -> dst: ``rel_vectors[e]`` is
    ``positions[dst] - positions[src] + offsets[e] @ cell`` and messages flow
    toward dst. Each node keeps at most ``max_neighbors`` incoming edges, the
    nearest ones first (ties broken by source index, then offset).
    """

    src: np.ndarray
    dst: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    rel_vectors: np.ndarray
    cutoff: float
    max_neighbors: int
    num_nodes: int

    @property
    def num_edges(self) -> int:
        return self.src.shape[0]

    @property
    def edges(self) -> list[tuple[int, int, tuple[int, int, int]]]:
        """Edge list as (src, dst, offset) tuples, in stored order."""
        return [
            (int(s), int(d), (int(o[0]), int(o[1]), int(o[2])))
            for s, d, o in zip(self.src, self.dst, self.offsets)
        ]


def _axis_offsets(pbc: tuple[bool, bool, bool], reach: int) -> np.ndarray:
    """All integer offsets with |component| <= reach on periodic axes."""
    ranges = [range(-reach, reach + 1) if flag else (0,) for flag in pbc]
    return np.array(list(itertools.product(*ranges)), dtype=np.int64)


def build_radius_graph(
    system: AtomicSystem,
    cutoff: float,
    max_neighbors: int,
) -> RadiusGraph:
    """Build the directed radius graph of a system.

    Periodic systems enumerate source images at offsets in {-1, 0, 1} along
    each periodic axis. If any strictly farther image (an offset component of
    magnitude 2) would still fall inside the cutoff, the cutoff is too large
    for that cell and CutoffExceedsImageRange is raised.
    """
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    if max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")

    positions = system.positions
    n = system.num_atoms
    periodic = system.is_periodic
    cell = system.cell if periodic else None

    if periodic:
        offsets = _axis_offsets(system.pbc, 2)
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
            raise CutoffExceedsImageRange(
                f"cutoff {cutoff} angstrom reaches periodic images beyond offset +/-1 "
                f"for this cell; reduce the cutoff or enlarge the cell"
            )

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

    # Deterministic order: group by destination, then nearest first with ties
    # broken by source index and lexicographic offset.
    order = np.lexsort((off_all[:, 2], off_all[:, 1], off_all[:, 0], src_all, dist_all, dst_all))
    dst_all = dst_all[order]
    src_all = src_all[order]
    off_all = off_all[order]
    vec_all = vec_all[order]
    dist_all = dist_all[order]

    if dst_all.size:
        # Rank of each edge within its destination block; keep the first
        # max_neighbors incoming edges per node.
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
