"""Atomic systems, Euclidean transforms, and periodic radius graphs.

Conventions used throughout the package:

- positions are (n, 3) float64 arrays in angstrom, one row per atom
- the rows of a cell matrix are the lattice vectors
- a transform g = (U, t) acts on row-vector positions as ``X @ U.T + t``;
  cell rows are lattice vectors, so g rotates them, ``cell @ U.T``, and
  never translates them
- a radius-graph edge's offset is an integer triple with no fixed range:
  the edge's source image sits at ``positions[src] - offset @ cell``

Rigid motions are drawn and applied a stack at a time:
:func:`random_transforms` draws k motions with one QR, and
:func:`apply_transforms` moves a system by all of them in one product.
:func:`random_transform` and :func:`apply_transform` are their one-element
calls.

Radius graphs are built a batch at a time: :func:`build_radius_graphs` runs
one neighbour search over every aperiodic system of a call and one per
periodic system, and :func:`build_radius_graph` is its one-system call,
kept public because the benchmark harness imports it by name. The search
is a cell list: bins half the cutoff wide on a crystal, a cutoff wide on
molecules.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .elements import MAX_ATOMIC_NUMBER
from .errors import NonFiniteInput, ShapeMismatch, UnknownElement

ORTHONORMAL_TOL = 1e-10
CELL_DET_TOL = 1e-10

# Radius-graph bins are wide enough that `reach` of them span at least
# cutoff * (1 + BIN_SLACK), so rounding in the bin coordinates never puts a
# pair within the cutoff out of reach.
BIN_SLACK = 1e-9
# A periodic cell holds at most this many bins per axis, so that its bin
# grid alone never outgrows exact ids.
MAX_BINS_PER_CELL = 2.0**16
# A bin grid of MAX_BIN_IDS bins or more, after the empty stretches of its
# aperiodic axes are closed up, cannot be numbered in int64.
MAX_BIN_IDS = 2.0**62
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


def positive_setting(name: str, value, integer: bool = False) -> int | float:
    """A model or graph setting as a plain ``int`` if ``integer``, else a plain ``float``.

    A count takes a Python or numpy integer of at least 1; a length such as a
    cutoff takes any finite real number above 0. Bools are neither. Raises
    ValueError naming ``name`` otherwise.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, kind) and not isinstance(value, bool):
        number = int(value) if integer else float(value)
        if number > 0 and (integer or math.isfinite(number)):
            return number
    rule = "a positive integer" if integer else "positive and finite"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _array(values, name: str) -> np.ndarray:
    """``np.asarray(values)``; nested sequences of unequal lengths raise ShapeMismatch."""
    try:
        return np.asarray(values)
    except ValueError:
        raise ShapeMismatch(f"{name} has rows of unequal length") from None


def _coordinates(values, name: str) -> np.ndarray:
    """Positions or a cell as float64; values that are not numbers raise NonFiniteInput."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raw = _array(values, name)
        raise NonFiniteInput(
            f"{name} must be real numbers, got {raw.dtype} values {raw.ravel()[:3].tolist()}"
        ) from None


def _atomic_numbers(values) -> np.ndarray:
    """Atomic numbers 1..MAX_ATOMIC_NUMBER as int64; whole-valued floats pass,
    nothing is truncated."""
    raw = _array(values, "atomic_numbers")
    if raw.dtype.kind not in "iuf":  # bools are kind "b"
        raise UnknownElement(
            f"atomic numbers must be integers, got {raw.dtype} values {raw.ravel()[:3].tolist()}"
        )
    if raw.dtype.kind == "f":
        fractional = raw[~np.isfinite(raw) | (raw != np.round(raw))]
        if fractional.size:
            raise UnknownElement(f"atomic number {fractional[0].item()!r} is not an integer")
    bad = raw[(raw < 1) | (raw > MAX_ATOMIC_NUMBER)]
    if bad.size:
        raise UnknownElement(f"atomic number {bad[0].item()!r} outside 1..{MAX_ATOMIC_NUMBER}")
    return raw.astype(np.int64, copy=False)


@dataclass(frozen=True)
class AtomicSystem:
    """A molecule or crystal snapshot.

    Parameters
    ----------
    positions : (n, 3) array
        Cartesian coordinates in angstrom.
    atomic_numbers : (n,) int array
        One entry in 1..118 per atom.
    cell : (3, 3) array, optional
        Rows are the lattice vectors. Required whenever any pbc flag is set.
    pbc : length-3 sequence of bool
        Periodicity along each lattice vector, as Python or numpy bools.
        Defaults to fully aperiodic.

    Arrays of the wrong shape raise ShapeMismatch, coordinates that are not
    finite real numbers NonFiniteInput, and atomic numbers that name no
    element UnknownElement.
    """

    positions: np.ndarray
    atomic_numbers: np.ndarray
    cell: np.ndarray | None = None
    pbc: tuple[bool, bool, bool] = (False, False, False)

    def __post_init__(self):
        positions = _coordinates(self.positions, "positions")
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise ShapeMismatch(f"positions must be (n, 3) with n >= 1, got {positions.shape}")
        if not np.isfinite(positions).all():
            raise NonFiniteInput("positions contain NaN or inf")
        numbers = _atomic_numbers(self.atomic_numbers)
        if numbers.shape != (positions.shape[0],):
            raise ShapeMismatch(
                f"atomic_numbers shape {numbers.shape} does not match {positions.shape[0]} atoms"
            )
        try:
            pbc = tuple(self.pbc)
        except TypeError:  # one flag, such as pbc=True
            pbc = ()
        if len(pbc) != 3:
            raise ShapeMismatch(f"pbc must have exactly three flags, got {self.pbc!r}")
        for flag in pbc:  # bool("F") is True, so only real bools are flags
            if not isinstance(flag, (bool, np.bool_)):
                raise ShapeMismatch(f"pbc flag {flag!r} is not a bool, in {self.pbc!r}")
        pbc = tuple(bool(flag) for flag in pbc)
        cell = self.cell
        if cell is not None:
            cell = _coordinates(cell, "cell")
            if cell.shape != (3, 3):
                raise ShapeMismatch(f"cell must be (3, 3), got {cell.shape}")
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

    def _moved(self, positions: np.ndarray, cell: np.ndarray | None) -> "AtomicSystem":
        """This system rigidly moved to ``positions`` and ``cell``, which the
        caller has checked to be finite float64 arrays of this system's shapes.

        Every other field is shared, not validated again. A rotated cell keeps
        its determinant's magnitude up to rounding, so it is not checked for
        being singular again either.
        """
        moved = object.__new__(AtomicSystem)
        moved.__dict__.update(self.__dict__, positions=positions, cell=cell)
        return moved

    @property
    def num_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def is_periodic(self) -> bool:
        return any(self.pbc)


def check_orthogonal(rotations: np.ndarray) -> np.ndarray:
    """Determinants of a (3, 3) matrix or a (k, 3, 3) stack of them.

    Raises ValueError if any matrix holds NaN or inf, which fail every
    comparison, and otherwise, naming the first offender, unless every matrix
    has ``max |U^T U - I|`` and ``||det U| - 1|`` within ``ORTHONORMAL_TOL``.
    """
    if not np.isfinite(rotations).all():
        raise ValueError("rotation contains NaN or inf")
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

    @classmethod
    def _checked(cls, rotation: np.ndarray, translation: np.ndarray) -> "EuclideanTransform":
        """The motion ``(rotation, translation)``, which the caller has checked
        to be a float64 orthogonal ``(3, 3)`` matrix and a float64 ``(3,)``
        vector; it is not validated again."""
        transform = object.__new__(cls)
        transform.__dict__.update(rotation=rotation, translation=translation)
        return transform

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


def apply_transforms(system: AtomicSystem, rotations: np.ndarray,
                     translations: np.ndarray) -> list[AtomicSystem]:
    """``system`` moved by each rigid motion of a stack, in stack order.

    ``rotations`` is a ``(k, 3, 3)`` stack of orthogonal matrices and
    ``translations`` a ``(k, 3)`` stack. Copy i's positions move as points,
    ``X @ rotations[i].T + translations[i]``, all copies in one product. Cell
    rows are lattice vectors, differences of positions, so they rotate,
    ``cell @ rotations[i].T``, and never translate: each moved crystal is the
    same crystal. The moved stack is checked for NaN and inf once, as
    :class:`AtomicSystem` checks coordinates; the copies share the source's
    already validated atomic numbers and pbc flags.
    """
    rotations = np.asarray(rotations, dtype=np.float64)
    translations = np.asarray(translations, dtype=np.float64)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3) or \
            translations.shape != (len(rotations), 3):
        raise ShapeMismatch(f"motions need (k, 3, 3) rotations and (k, 3) translations, got "
                            f"{rotations.shape} and {translations.shape}")
    check_orthogonal(rotations)
    turns = np.swapaxes(rotations, 1, 2)
    positions = system.positions @ turns + translations[:, None]
    if not np.isfinite(positions).all():
        raise NonFiniteInput("positions contain NaN or inf")
    cells = [None] * len(rotations) if system.cell is None else system.cell @ turns
    if system.cell is not None and not np.isfinite(cells).all():
        raise NonFiniteInput("cell contains NaN or inf")
    return [system._moved(moved, cell) for moved, cell in zip(positions, cells)]


def apply_transform(system: AtomicSystem, transform: EuclideanTransform) -> AtomicSystem:
    """``system`` moved by one rigid motion: :func:`apply_transforms` of a stack of one."""
    return apply_transforms(system, transform.rotation[None], transform.translation[None])[0]


def _haar_orthogonal(gauss: np.ndarray) -> np.ndarray:
    """The Haar-uniform O(3) matrices of a ``(k, 3, 3)`` stack of Gaussian
    draws; each det is +1 or -1 with equal probability."""
    q, r = np.linalg.qr(gauss)
    # Fixing the sign of R's diagonal makes the QR factor Haar-distributed.
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def with_det_sign(rotations: np.ndarray, sign: float) -> np.ndarray:
    """A (3, 3) matrix or a (k, 3, 3) stack whose determinants have the sign of ``sign``.

    Column 0 of each matrix with the other sign is negated, in a copy;
    ``rotations`` itself comes back when no matrix needs it.
    """
    flip = np.linalg.det(rotations) * sign < 0
    if flip.any():
        rotations = rotations.copy()
        column = rotations[..., 0]
        np.negative(column, out=column, where=flip[..., None])
    return rotations


def random_transforms(group: str, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` random rigid motions of one of the supported groups.

    Returns a ``(count, 3, 3)`` rotation stack and a ``(count, 3)``
    translation stack. E3 draws Haar-uniform orthogonal matrices (reflections
    included), SE3 and SO3 restrict to det +1, T3 is translation-only, and
    Z_AXIS_2D rotates about the z axis. Translations are uniform in
    [-10, 10]^3 angstrom except for SO3, which is centered at the origin.

    Each motion takes its raw draws from ``rng`` in turn, the translation and
    then a Gaussian 3x3 matrix or an angle, so the stack is bit for bit
    ``count`` calls of :func:`random_transform` and leaves ``rng`` in the
    same state. The QR, the sign fixes and the orthogonality check then run
    once over the stack.
    """
    group = normalize_group(group)
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    translations = np.empty((count, 3))
    haar = group in (E3, SE3, SO3)
    draws = np.empty((count, 3, 3) if haar else count)
    for i in range(count):
        translations[i] = rng.uniform(-TRANSLATION_RANGE, TRANSLATION_RANGE, size=3)
        if haar:
            draws[i] = rng.standard_normal((3, 3))
        elif group == Z_AXIS_2D:
            draws[i] = rng.uniform(0.0, 2.0 * np.pi)
    if haar:
        rotations = _haar_orthogonal(draws)
        if group != E3:
            rotations = with_det_sign(rotations, 1.0)
        if group == SO3:
            translations[:] = 0.0
    else:
        rotations = np.zeros((count, 3, 3))
        rotations[:, 2, 2] = 1.0
        if group == T3:
            rotations[:, 0, 0] = rotations[:, 1, 1] = 1.0
        else:  # Z_AXIS_2D
            c, s = np.cos(draws), np.sin(draws)
            rotations[:, 0, 0], rotations[:, 0, 1] = c, -s
            rotations[:, 1, 0], rotations[:, 1, 1] = s, c
    check_orthogonal(rotations)
    return rotations, translations


def random_transform(group: str, rng: np.random.Generator) -> EuclideanTransform:
    """One random rigid motion: :func:`random_transforms` of ``count`` 1."""
    rotations, translations = random_transforms(group, rng, 1)
    return EuclideanTransform(rotation=rotations[0], translation=translations[0])


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

    Atoms are sorted into bins and each atom is paired with the atoms of the
    bins within reach. A periodic cell is binned in fractional coordinates,
    with bins half the cutoff wide where the cell holds two of them, so that
    the bins within reach are those two bins away; aperiodic systems are
    binned in angstrom, with bins a cutoff wide, reached one bin away. Each
    step finds its bin with one lookup among the occupied bins, so time and
    memory go with the number of atoms and of these candidate pairs, not
    with n^2 nor with the size of the bin grid. One more table holds a shift
    per possible offset; it grows with how many whole cells apart the stored
    positions lie.

    All aperiodic systems of a call share one search, each in a slab of bins
    of its own; a periodic system is searched alone, on its own lattice. A
    system's graph is bit for bit the same whichever call builds it.
    """
    cutoff = positive_setting("cutoff", cutoff)
    max_neighbors = positive_setting("max_neighbors", max_neighbors, integer=True)

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


def _too_many_bins(atoms: int) -> ValueError:
    return ValueError(f"a radius graph of {atoms} atoms this far apart "
                      "needs more bins than int64 ids can number")


def _close_gaps(cells: np.ndarray, owner: np.ndarray, axes: np.ndarray, reach: np.ndarray):
    """Close up each system's empty stretches of float bin coordinates on
    ``axes``, in place; ``owner`` numbers each row's system, in sorted order.

    Along each axis, every gap between a system's occupied coordinates that
    is wider than the reach shrinks to reach + 1. Coordinates within reach
    of each other keep their exact distance and all others stay out of
    reach, so every step finds the same atoms, while a system's span drops
    to at most (reach + 1) bins per atom, whatever the spread of its
    positions.
    """
    axes = axes.nonzero()[0]
    part = cells[:, axes]
    # Rows sorted by system, then coordinate, on each axis; owner is already
    # sorted, so each system's rows keep their own row numbers.
    order = np.lexsort((part, owner[:, None].repeat(len(axes), axis=1)), axis=0)
    gaps = np.diff(cells[order, axes], axis=0)
    np.minimum(gaps, reach[axes] + 1.0, out=gaps)
    gaps[owner[1:] != owner[:-1]] = 0.0  # no gap between one system's rows and the next's
    closed = np.zeros_like(part)
    gaps.cumsum(axis=0, out=closed[1:])
    cells[order, axes] = closed


def _edge_order(dst: np.ndarray, dist: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """``np.lexsort((tie, dist, dst))`` for unique (dst, tie) pairs, by two plain sorts.

    Each distance's rank among the distinct distances makes ``dst * len +
    rank`` one int64 key in the order of (dst, dist); only the runs that
    key leaves tied, a node's sources at exactly the same distance, are
    then sorted by ``tie``.
    """
    by_dist = dist.argsort()
    sorted_dist = dist.take(by_dist)
    rank = np.zeros_like(by_dist)
    rank[by_dist[1:]] = (sorted_dist[1:] != sorted_dist[:-1]).cumsum()
    key = dst * len(dist) + rank
    order = key.argsort()
    key = key.take(order)
    tied = key[1:] == key[:-1]
    if tied.any():
        runs = (np.append(tied, False) | np.append(False, tied)).nonzero()[0]
        order[runs] = order[runs].take(np.lexsort((tie.take(order[runs]), key.take(runs))))
    return order


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
        # Plane spacing over the padded cutoff, per cell axis. Bins are half
        # the cutoff wide where the cell holds two of them, so the atoms of
        # the 5^3 bins within reach 2 fill (2.5 cutoffs)^3, against (3
        # cutoffs)^3 for bins a whole cutoff wide, or the whole cell when it
        # holds fewer than three such bins.
        per_cutoff = 1.0 / (np.sqrt((inverse * inverse).sum(axis=0)) * padded)
        bins_per_cell = np.clip(np.floor(2.0 * per_cutoff), 1.0, MAX_BINS_PER_CELL)
        reach = np.ceil(bins_per_cell / per_cutoff).astype(np.int64)
        bins_per_cell = bins_per_cell.astype(np.int64)
        scale = inverse * bins_per_cell
    else:
        # Molecules keep bins a cutoff wide: with few atoms per bin, finer
        # bins save fewer distances than the longer stencil costs.
        positions = np.concatenate([system.positions for system in systems])
        cell = _IDENTITY  # the one offset, 0, then shifts by exactly +0.0
        bins_per_cell = reach = _UNIT
        scale = _IDENTITY / padded

    # Bin coordinates stay floats until the bin grid is known to fit exact
    # int64 ids. Aperiodic axes first have their empty stretches closed up,
    # so their spans follow the atom count, not the spread of the positions.
    with np.errstate(over="ignore"):  # a coordinate past the float range raises next
        cells = np.floor(positions @ scale)
    if not np.isfinite(cells).all():
        raise _too_many_bins(len(positions))
    if not pbc.all():
        _close_gaps(cells, np.arange(len(systems)).repeat(counts), ~pbc, reach)
    width = 2 * reach + 1  # bins in the stencil along each axis
    low = np.minimum.reduceat(cells, firsts[:-1], axis=0)
    span = np.maximum.reduceat(cells, firsts[:-1], axis=0) - low
    slabs = np.where(pbc, bins_per_cell, span + width)
    size = np.array([slabs[:, 0].sum(), *slabs[:, 1:].max(axis=0)])
    if math.prod(size.tolist()) >= MAX_BIN_IDS:
        raise _too_many_bins(len(positions))
    slabs, size = slabs.astype(np.int64), size.astype(np.int64)

    # Lift each system's lowest bin to `reach`: on an aperiodic axis every
    # step then lands inside [0, size) and never wraps, so its offset stays 0.
    # Systems sit side by side along the first axis, each in a slab of its
    # own, so no step reaches another system's bins. Only bin coordinates
    # move; positions keep their bits.
    lift = reach - low
    lift[1:, 0] += slabs[:-1, 0].cumsum()
    cells = (cells + lift.repeat(counts, axis=0)).astype(np.int64)
    # Read on periodic axes only, and then the search holds one system.
    span = span[0].astype(np.int64)

    strides = np.array([size[1] * size[2], size[2], 1])
    img, wrapped = np.divmod(cells, size)  # each atom's whole-cell image and bin
    bin_id = wrapped @ strides
    order = bin_id.argsort(kind="stable")
    sorted_bins = bin_id.take(order)
    # The occupied bins and where each one's run of `order` starts, then two
    # ends past the last: an empty run for the steps that find no atom.
    bounds = np.concatenate(([0], (sorted_bins[1:] != sorted_bins[:-1]).nonzero()[0] + 1,
                             [len(order)] * 2))
    occupied = sorted_bins.take(bounds[:-2])

    # A candidate's offset is img[src] minus the image its step lands in;
    # `key` is its row in the box of offsets that can occur. img spans
    # (span + reach) // size - reach // size cells, and a step's image is
    # within reach of its atom's.
    half = np.where(pbc, (span + reach) // size - reach // size + reach, 0)
    offsets, _, box_strides = _offset_box(tuple(half.tolist()))
    rows = len(offsets)
    zero = rows // 2

    # Every (atom, step) pair, steps in the stencil's lexicographic order:
    # per atom and axis, the bin coordinate each step lands on and the image
    # of the cell it lands in, summed over the three axes into the bin's id
    # and the image's row of the offset box.
    most = reach.max()
    whole, bins = np.divmod(cells[:, :, None] + np.arange(-most, most + 1), size[:, None])
    bins *= strides[:, None]
    whole *= box_strides[:, None]
    x, y, z = (slice(most - r, most + r + 1) for r in reach.tolist())
    target = bins[:, 0, x, None, None] + bins[:, 1, None, y, None] + bins[:, 2, None, None, z]
    image = whole[:, 0, x, None, None] + whole[:, 1, None, y, None] + whole[:, 2, None, None, z]
    target, image = target.ravel(), image.ravel()

    # Each step's run of `order` by one lookup among the occupied bins; a
    # step into an empty bin gets the empty run.
    slot = occupied.searchsorted(target)
    slot[occupied.take(slot, mode="clip") != target] = len(occupied)
    first = bounds.take(slot)
    count = bounds.take(slot + 1) - first
    ends = count.cumsum()
    pair = np.arange(count.size).repeat(count)
    src = order.take(np.arange(ends[-1]) + (first - ends + count).take(pair))
    dst = pair // width.prod()
    key = (img @ box_strides + zero).take(src) - image.take(pair)

    # One (3,) @ (3, 3) product per offset (a stack of such products), then
    # (x_dst - x_src) + shift, and the row norm summed in np.linalg.norm's
    # order, (x^2 + y^2) + z^2, without its reduction's overhead.
    shifts = (offsets[:, None, :].astype(np.float64) @ cell)[:, 0]
    vec = positions.take(dst, axis=0)
    vec -= positions.take(src, axis=0)
    vec += shifts.take(key, axis=0)
    sq = vec * vec
    dist = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])

    # Deterministic order: group by destination, then nearest first with ties
    # broken by source index and lexicographic offset (tie = src, then key).
    # Each atom's pair with itself at offset 0 is dropped.
    tie = src * rows + key
    hit = ((dist < cutoff) & (tie != dst * rows + zero)).nonzero()[0]
    tie, dst, dist = tie.take(hit), dst.take(hit), dist.take(hit)
    order = _edge_order(dst, dist, tie)
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
            cutoff=cutoff,
            max_neighbors=max_neighbors,
            num_nodes=system.num_atoms,
        )
        for system, first, a, b in zip(systems, firsts, bounds[:-1], bounds[1:])
    ]
