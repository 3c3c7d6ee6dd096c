"""Atomic systems, Euclidean transforms, and periodic radius graphs.

Conventions used throughout the package:

- positions are (n, 3) float64 arrays in angstrom, one row per atom
- the rows of a cell matrix are the lattice vectors
- a transform g = (U, t) acts on row-vector positions as ``X @ U.T + t``;
  cell rows are lattice vectors, so g rotates them, ``cell @ U.T``, and
  never translates them
- a radius-graph edge's offset is an integer triple with no fixed range:
  the edge's source image sits at ``positions[src] - offset @ cell``

Radius graphs are built a batch at a time: :func:`build_radius_graphs` runs
one neighbour search over every aperiodic system of a call and one per
periodic system, and :func:`build_radius_graph` is its one-system call,
kept public because the benchmark harness imports it by name.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput, UnknownElement

ORTHONORMAL_TOL = 1e-10
CELL_DET_TOL = 1e-10

# Radius-graph bins are at least cutoff * (1 + BIN_SLACK) wide, so rounding
# in the bin coordinates never puts a pair within the cutoff out of reach.
BIN_SLACK = 1e-9
_IDENTITY = np.eye(3)
_UNIT = np.ones(3, dtype=np.int64)

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


def check_orthogonal(rotations: np.ndarray) -> np.ndarray:
    """Determinants of a (3, 3) matrix or a (k, 3, 3) stack of them.

    Raises ValueError, naming the first offender, unless every matrix has
    ``max |U^T U - I|`` and ``||det U| - 1|`` within ``ORTHONORMAL_TOL``.
    """
    gram_error = np.abs(np.swapaxes(rotations, -1, -2) @ rotations - _IDENTITY).max(axis=(-2, -1))
    det = np.linalg.det(rotations)
    bad = (gram_error > ORTHONORMAL_TOL) | (np.abs(np.abs(det) - 1.0) > ORTHONORMAL_TOL)
    if bad.any():
        first = np.argmax(bad)
        error, value = np.ravel(gram_error)[first], np.ravel(det)[first]
        if error > ORTHONORMAL_TOL:
            raise ValueError(f"rotation is not orthogonal (max |U^T U - I| = {error:.3e})")
        raise ValueError(f"rotation determinant {value} is not +/-1")
    return det


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
        check_orthogonal(rotation)
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


@functools.lru_cache(maxsize=64)
def _offset_box(half: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every integer triple with ``|o[i]| <= half[i]``, in lexicographic order.

    Returns the (R, 3) table, the per-axis widths ``2 * half + 1``, and the
    strides that send a triple o to its row, ``(o + half) @ strides``; the
    zero triple is row ``R // 2``. The arrays are shared and read-only.
    """
    width = np.array([2 * h + 1 for h in half])
    box = np.indices(width).reshape(3, -1).T - np.array(half)
    strides = np.array([width[1] * width[2], width[2], 1])
    for array in (box, width, strides):
        array.flags.writeable = False
    return box, width, strides


def build_radius_graph(system: AtomicSystem, cutoff: float, max_neighbors: int) -> RadiusGraph:
    """The directed radius graph of one system: :func:`build_radius_graphs` of ``[system]``."""
    return build_radius_graphs([system], cutoff, max_neighbors)[0]


def build_radius_graphs(
    systems: Sequence[AtomicSystem],
    cutoff: float,
    max_neighbors: int,
) -> list[RadiusGraph]:
    """Build the directed radius graph of every system, in input order.

    Every source image within the cutoff is found, however many cells away:
    the cutoff over each periodic axis's plane spacing (volume / |a x b|)
    sets how far the search reaches, so a cell narrower than the cutoff
    simply yields larger offsets. Positions need not lie inside the cell.

    Atoms are sorted into bins at least the cutoff wide (fractional
    coordinates on a periodic cell, angstrom on an aperiodic system) and each
    atom is paired with the atoms of the bins within reach. Time and memory
    go with the number of atoms and of these candidate pairs, not with n^2.
    One more table holds a shift per possible offset; it grows with how many
    whole cells apart the stored positions lie.

    All aperiodic systems of a call share one search, each in a slab of bins
    of its own; a periodic system is searched alone, on its own lattice. A
    system's graph is bit for bit the same whichever call builds it.
    """
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    if (isinstance(max_neighbors, (bool, np.bool_))
            or not isinstance(max_neighbors, (int, np.integer)) or max_neighbors < 1):
        raise ValueError(f"max_neighbors must be a positive integer, got {max_neighbors!r}")

    graphs: list = [None] * len(systems)
    aperiodic = [i for i, system in enumerate(systems) if not system.is_periodic]
    searches = [[i] for i, system in enumerate(systems) if system.is_periodic]
    if aperiodic:
        searches.append(aperiodic)
    for members in searches:
        found = _search([systems[i] for i in members], cutoff, max_neighbors)
        for i, graph in zip(members, found):
            graphs[i] = graph
    return graphs


def _search(systems: list[AtomicSystem], cutoff: float, max_neighbors: int) -> list[RadiusGraph]:
    """One binned search over a single periodic system or any aperiodic ones."""
    counts = np.array([system.num_atoms for system in systems])
    firsts = np.concatenate(([0], counts.cumsum()))
    pbc = np.array(systems[0].pbc)
    padded = cutoff * (1.0 + BIN_SLACK)
    if systems[0].is_periodic:
        positions = systems[0].positions
        cell = systems[0].cell
        inverse = np.linalg.inv(cell)
        # Plane spacing over the padded cutoff, per cell axis.
        per_cutoff = 1.0 / (np.sqrt((inverse * inverse).sum(axis=0)) * padded)
        bins_per_cell = np.maximum(np.floor(per_cutoff), 1.0)
        reach = np.ceil(bins_per_cell / per_cutoff).astype(np.int64)
        steps, width, _ = _offset_box(tuple(reach.tolist()))
        bins_per_cell = bins_per_cell.astype(np.int64)
        cells = np.floor(positions @ (inverse * bins_per_cell)).astype(np.int64)
    else:
        positions = np.concatenate([system.positions for system in systems])
        cell = _IDENTITY  # the one offset, 0, then shifts by exactly +0.0
        bins_per_cell = reach = _UNIT
        steps, width, _ = _offset_box((1, 1, 1))
        cells = np.floor(positions * (1.0 / padded)).astype(np.int64)

    # Lift each system's lowest bin to `reach`: on an aperiodic axis every
    # step then lands inside [0, size) and never wraps, so its offset stays 0.
    # Systems sit side by side along the first axis, each in a slab of its
    # own, so no step reaches another system's bins. Only bin coordinates
    # move; positions keep their bits.
    low = np.minimum.reduceat(cells, firsts[:-1], axis=0)
    span = np.maximum.reduceat(cells, firsts[:-1], axis=0) - low
    slabs = np.where(pbc, bins_per_cell, span + width)
    lift = reach - low
    lift[1:, 0] += slabs[:-1, 0].cumsum()
    cells += lift.repeat(counts, axis=0)
    size = np.array([slabs[:, 0].sum(), slabs[:, 1].max(), slabs[:, 2].max()])
    span = span[0]  # read on periodic axes only, and then the search holds one system

    strides = np.array([size[1] * size[2], size[2], 1])
    img, wrapped = np.divmod(cells, size)  # each atom's whole-cell image and bin
    bin_id = wrapped @ strides
    order = bin_id.argsort(kind="stable")
    sorted_bins = bin_id.take(order)

    # One pass over (atom, step) pairs: the bin each step lands in, the image
    # of the cell it lands in, and that bin's slice of `order`.
    image, wrapped = np.divmod(cells[:, None, :] + steps, size)
    target = (wrapped @ strides).ravel()
    first = sorted_bins.searchsorted(target)
    count = sorted_bins.searchsorted(target, "right") - first
    ends = count.cumsum()
    pair = np.arange(count.size).repeat(count)
    src = order.take(np.arange(ends[-1]) + (first - ends + count).take(pair))
    dst = pair // len(steps)

    # A candidate's offset is img[src] - image[pair]; `key` is its row in the
    # box of offsets that can occur. img spans (span + reach) // size -
    # reach // size cells, and a step's image is within reach of its atom's.
    half = np.where(pbc, (span + reach) // size - reach // size + reach, 0)
    offsets, _, box_strides = _offset_box(tuple(half.tolist()))
    rows = len(offsets)
    zero = rows // 2
    key = (img @ box_strides + zero).take(src) - (image @ box_strides).ravel().take(pair)

    # One (3,) @ (3, 3) product per offset (a stack of such products), then
    # (x_dst - x_src) + shift, and the row norm summed as np.linalg.norm does.
    shifts = (offsets[:, None, :].astype(np.float64) @ cell)[:, 0]
    vec = positions.take(dst, axis=0)
    vec -= positions.take(src, axis=0)
    vec += shifts.take(key, axis=0)
    dist = np.sqrt(np.add.reduce(vec * vec, axis=1))

    # Deterministic order: group by destination, then nearest first with ties
    # broken by source index and lexicographic offset (tie = src, then key).
    # Each atom's pair with itself at offset 0 is dropped.
    tie = src * rows + key
    hit = ((dist < cutoff) & (tie != dst * rows + zero)).nonzero()[0]
    tie, dst, dist = tie.take(hit), dst.take(hit), dist.take(hit)
    order = np.lexsort((tie, dist, dst))
    # Candidates come destination by destination, so dst is already sorted
    # and an edge's rank is its position past the first edge into its node.
    keep = order[np.arange(dst.size) - dst.searchsorted(dst) < max_neighbors]
    src, key = np.divmod(tie.take(keep), rows)

    dst = dst.take(keep)
    offsets = offsets.take(key, axis=0)
    distances = dist.take(keep)
    rel_vectors = vec.take(hit.take(keep), axis=0)

    # Edges come destination by destination, so each system's are one run.
    bounds = dst.searchsorted(firsts)
    return [
        RadiusGraph(
            src=src[a:b] - first,
            dst=dst[a:b] - first,
            offsets=offsets[a:b],
            distances=distances[a:b],
            rel_vectors=rel_vectors[a:b],
            cutoff=float(cutoff),
            max_neighbors=int(max_neighbors),
            num_nodes=system.num_atoms,
        )
        for system, first, a, b in zip(systems, firsts, bounds[:-1], bounds[1:])
    ]
