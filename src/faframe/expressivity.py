"""Synthetic two-class geometry benchmarks.

Each family builds a pair of shapes that no rigid motion (rotations,
reflections, translations) plus same-element relabeling can map onto each
other, certified numerically before any model sees them. A tiny network is
then trained to tell the classes apart from randomly transformed copies;
accuracy on fresh transforms measures how well the symmetry handling, not
raw capacity, solves the task.

Families:

* ``kchains``: k collinear carbon atoms at unit spacing plus two end atoms
  bent 45 degrees out of the axis, on the same side (cis) or opposite sides
  (trans).
* ``rotsym``: an L-atom nitrogen ring above an anchor atom, with an
  off-axis marker atom that makes the ring phase observable; the second
  class twists the ring by a configurable angle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, islice, permutations, product

import numpy as np

from . import diffmath as dm
from .errors import DegenerateAngle
from .faenet import FAENetConfig, FAENetModel, forward, training_forward
from .geometry import (
    E3,
    AtomicSystem,
    apply_transform,
    apply_transforms,
    count_setting,
    normalize_group,
    positive_setting,
    random_transform,
    random_transforms,
)

FAMILIES = ("kchains", "rotsym")

# RMSD (angstrom) below which two shapes count as rigidly equivalent.
ALIGNMENT_THRESHOLD = 0.1
# Pairing searches larger than this fall back to the distance-multiset test.
MAX_PERMUTATIONS = 50_000
# AdamW learning rate of every benchmark classifier.
LEARNING_RATE = 1e-2

_CHAIN_ELEMENT = 6
_RING_ELEMENT = 7
_ANCHOR_ELEMENT = 6
_MARKER_ELEMENT = 8


@dataclass(frozen=True)
class BenchmarkInstance:
    """A certified pair of rigidly distinct shapes."""

    family: str
    parameter: int
    systems: tuple[AtomicSystem, AtomicSystem]
    min_alignment_residual: float

    @property
    def system_a(self) -> AtomicSystem:
        return self.systems[0]

    @property
    def system_b(self) -> AtomicSystem:
        return self.systems[1]


def _centered(positions: np.ndarray) -> np.ndarray:
    return positions - positions.mean(axis=0)


def _best_orthogonal_residuals(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """RMSD of each ``q[i]`` against the best orthogonal image of p (all centered).

    Reflections are allowed, so this minimizes over the full orthogonal
    group rather than rotations only. ``q`` is a ``(k, n, 3)`` stack; each
    row's residual has the bits of the same fit solved alone.
    """
    u, _, vt = np.linalg.svd(p.T @ q)
    rotated = p @ (u @ vt)
    return np.sqrt(((rotated - q) ** 2).reshape(len(q), -1).sum(axis=1) / len(p))


def _element_groups(numbers: np.ndarray) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for index, z in enumerate(numbers):
        groups.setdefault(int(z), []).append(index)
    return groups


def _distance_multiset(system: AtomicSystem) -> np.ndarray:
    positions = system.positions
    deltas = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((deltas ** 2).sum(axis=-1))
    i, j = np.triu_indices(len(positions), k=1)
    return np.sort(distances[i, j])


def rigid_alignment_residual(a: AtomicSystem, b: AtomicSystem) -> float:
    """Minimum RMSD between ``b`` and any rigid motion of ``a``.

    The minimum runs over rotations, reflections, translations, and all
    atom pairings that preserve atomic numbers. Returns ``inf`` when the
    two compositions differ. When the pairing search would exceed
    ``MAX_PERMUTATIONS``, differing interatomic distance multisets still
    certify distinctness (returning ``inf``); coinciding multisets are
    inconclusive at that size and raise ValueError.

    Every pairing's Procrustes fit is solved in one stacked SVD, a block of
    about ``diffmath.ROW_BLOCK_BYTES`` of gathered positions at a time, so
    memory does not grow with the number of pairings. Each fit has the bits
    it has when solved alone.
    """
    groups_a = _element_groups(a.atomic_numbers)
    groups_b = _element_groups(b.atomic_numbers)
    if sorted(a.atomic_numbers.tolist()) != sorted(b.atomic_numbers.tolist()):
        return float("inf")

    total = 1
    for indices in groups_a.values():
        total *= math.factorial(len(indices))
    if total > MAX_PERMUTATIONS:
        gap = np.abs(_distance_multiset(a) - _distance_multiset(b)).max()
        if gap > 1e-6:
            return float("inf")
        raise ValueError(
            f"{total} candidate pairings exceed the search budget and the "
            f"distance multisets coincide; distinctness is undecided"
        )

    p = _centered(a.positions)
    q = _centered(b.positions)
    elements = sorted(groups_a)
    # Each assignment names b's atoms for a's atoms in the order of sources;
    # row r of pairings sends a's atom i to b's atom pairings[r, i].
    sources = [index for z in elements for index in groups_a[z]]
    assignments = product(*(permutations(groups_b[z]) for z in elements))
    step = max(dm.ROW_BLOCK_BYTES // q.nbytes, 1)
    best = float("inf")
    while block := list(islice(assignments, step)):
        pairings = np.empty((len(block), len(p)), dtype=np.intp)
        pairings[:, sources] = np.fromiter(chain.from_iterable(chain.from_iterable(block)),
                                           dtype=np.intp).reshape(len(block), -1)
        best = min(best, float(_best_orthogonal_residuals(p, q[pairings]).min()))
    return best


def _chain_positions(k: int, same_side: bool) -> np.ndarray:
    s = math.sin(math.pi / 4)
    rows = [(-s, 0.0, s)]
    rows.extend((float(i), 0.0, 0.0) for i in range(k))
    rows.append((k - 1 + s, 0.0, s if same_side else -s))
    return np.array(rows)


def gen_k_chain(k: int) -> BenchmarkInstance:
    """Cis/trans bent chains with k backbone atoms (k >= 2).

    Both shapes share every bond length and bond angle; only the dihedral
    relation of the two end atoms differs, so any model that cannot see
    beyond local environments finds the classes indistinguishable.
    """
    k = count_setting("k", k, 2)
    numbers = np.full(k + 2, _CHAIN_ELEMENT)
    cis = AtomicSystem(_chain_positions(k, True), numbers)
    trans = AtomicSystem(_chain_positions(k, False), numbers)
    residual = rigid_alignment_residual(cis, trans)
    if residual <= ALIGNMENT_THRESHOLD:
        raise ValueError(f"chain classes align to {residual:.3g} angstrom RMSD")
    return BenchmarkInstance("kchains", k, (cis, trans), residual)


def _ring_positions(length: int, phase: float) -> np.ndarray:
    rows = []
    for j in range(length):
        theta = 2 * math.pi * j / length + phase
        rows.append((math.cos(theta), math.sin(theta), 0.5))
    rows.append((0.0, 0.0, -0.5))
    # the marker needs a long lever arm: undoing a twist of pi/L by rigidly
    # rotating the whole system moves the marker by ~ 2 r sin(pi/2L), and
    # that displacement must survive division by sqrt(L + 2) to keep the
    # classes rigidly distinct at large L
    rows.append((2.0, 0.0, -1.0))
    return np.array(rows)


def gen_rot_sym(length: int, angle: float | None = None) -> BenchmarkInstance:
    """Ring-twist pair with L-fold symmetric rings (L >= 2).

    Class 0 carries the ring at its reference phase, class 1 twists it by
    ``angle`` (default pi/L). The off-axis marker atom pins the azimuth, so
    the twist is a genuine shape change rather than a rigid rotation.
    Angles that are multiples of 2*pi/L collapse the classes and raise
    DegenerateAngle.
    """
    length = count_setting("length", length, 2)
    if angle is None:
        angle = math.pi / length
    if not math.isfinite(angle):
        raise ValueError(f"twist angle must be a finite number of radians, got {angle!r}")
    period = 2 * math.pi / length
    remainder = angle % period
    if min(remainder, period - remainder) < 1e-9:
        raise DegenerateAngle(
            f"twist {angle!r} is a multiple of the ring period {period:.6g}"
        )
    numbers = np.array([_RING_ELEMENT] * length + [_ANCHOR_ELEMENT, _MARKER_ELEMENT])
    reference = AtomicSystem(_ring_positions(length, 0.0), numbers)
    twisted = AtomicSystem(_ring_positions(length, angle), numbers)
    residual = rigid_alignment_residual(reference, twisted)
    if residual <= ALIGNMENT_THRESHOLD:
        raise DegenerateAngle(
            f"twist {angle!r} leaves the classes rigidly alignable "
            f"({residual:.3g} angstrom RMSD)"
        )
    return BenchmarkInstance("rotsym", length, (reference, twisted), residual)


def default_benchmark_config(family: str) -> FAENetConfig:
    """Deliberately small model: separation must come from symmetry handling.

    The chain cutoff (1.2) keeps only nearest-neighbor bonds, so single-layer
    message passing sees identical local environments in both classes.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    # The ungated energy head trains much more reliably on logit targets:
    # closing the gate of the weighted head zeroes the output and its
    # input sensitivity at once, a saddle the optimizer rarely escapes.
    return FAENetConfig(
        hidden_channels=32,
        num_filters=32,
        num_gaussians=16,
        num_interactions=1,
        cutoff=1.2 if family == "kchains" else 2.5,
        max_neighbors=16,
        energy_head="simple",
    )


@dataclass(frozen=True)
class BenchmarkResult:
    family: str
    parameter: int
    fa_mode: str
    group: str
    num_layers: int
    epochs: int
    accuracies: tuple[float, ...]
    min_alignment_residual: float
    seed: int
    config_hash: str

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies))

    @property
    def perfect_seeds(self) -> int:
        return sum(1 for a in self.accuracies if a == 1.0)

    def to_dict(self) -> dict:
        return {**asdict(self), "schema_version": 1, "accuracies": list(self.accuracies),
                "mean_accuracy": self.mean_accuracy, "std_accuracy": self.std_accuracy,
                "perfect_seeds": self.perfect_seeds, "num_seeds": len(self.accuracies)}


def run_benchmark(family: str, parameter: int, *, num_seeds: int = 10,
                  epochs: int = 150, fa_mode: str = "stochastic", group: str = E3,
                  train_transforms: int = 20, test_transforms: int = 100,
                  angle: float | None = None, seed: int = 0,
                  config: FAENetConfig | None = None) -> BenchmarkResult:
    """Train fresh classifiers on one benchmark pair and score them.

    The model is ``config``, by default :func:`default_benchmark_config` of
    the family; the result's ``num_layers`` is its ``num_interactions``.
    Each seed gets its own model, AdamW optimizer at ``LEARNING_RATE`` and
    transform stream. Every epoch trains on both originals plus
    ``train_transforms`` random rigid copies per class in a single batched
    cross-entropy step on the energy output; accuracy is measured on
    ``test_transforms`` unseen copies per class, labeling by the sign of the
    predicted energy. The pair is built and certified rigidly distinct once
    per call, by :func:`rigid_alignment_residual`'s stacked solve. A count
    that is not an integer in range raises ValueError naming it.
    """
    group = normalize_group(group)
    num_seeds = positive_setting("num_seeds", num_seeds, integer=True)
    test_transforms = positive_setting("test_transforms", test_transforms, integer=True)
    epochs = count_setting("epochs", epochs)
    train_transforms = count_setting("train_transforms", train_transforms)
    # Both families need at least two chain or ring atoms.
    parameter = count_setting("parameter", parameter, 2)
    if family == "kchains":
        if angle is not None:
            raise ValueError("angle only applies to the rotsym family")
        instance = gen_k_chain(parameter)
    elif family == "rotsym":
        instance = gen_rot_sym(parameter, angle)
    else:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if config is None:
        config = default_benchmark_config(family)
    accuracies = []
    for rep in range(num_seeds):
        rng = np.random.default_rng([seed, rep])
        model = FAENetModel(config, rng)
        optimizer = dm.AdamW(model.parameters(), learning_rate=LEARNING_RATE)
        for _ in range(epochs):
            # Every class's copies in one draw, in the order class by class.
            rotations, translations = random_transforms(
                E3, rng, len(instance.systems) * train_transforms)
            systems = []
            labels = []
            for label, base in enumerate(instance.systems):
                part = slice(label * train_transforms, (label + 1) * train_transforms)
                systems += [base, *apply_transforms(base, rotations[part], translations[part])]
                labels += [label] * (train_transforms + 1)
            optimizer.zero_grad()  # the last epoch's gradients are dead
            energies, _ = training_forward(model, systems, fa_mode, group, rng, False)
            targets = dm.constant(np.array(labels, dtype=np.float64)[:, None])
            optimizer.minimize(dm.binary_cross_entropy_with_logits(energies, targets))
        correct = 0
        total = 0
        # One copy at a time: each copy's motion and its stochastic frame
        # draw alternate in the rng stream.
        for label, base in enumerate(instance.systems):
            for _ in range(test_transforms):
                moved = apply_transform(base, random_transform(E3, rng))
                prediction = forward(model, moved, fa_mode=fa_mode, group=group, rng=rng)
                correct += int((prediction.energy > 0) == bool(label))
                total += 1
        accuracies.append(correct / total)
    return BenchmarkResult(
        family=family,
        parameter=parameter,
        fa_mode=fa_mode,
        group=group,
        num_layers=config.num_interactions,
        epochs=epochs,
        accuracies=tuple(accuracies),
        min_alignment_residual=instance.min_alignment_residual,
        seed=seed,
        config_hash=config.config_hash(),
    )
