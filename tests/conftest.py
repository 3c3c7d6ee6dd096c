"""Shared test plumbing: collects acceptance-criterion verdict lines, gives
child processes the environment that imports the code under test, names a
few small molecules, and draws mixed batches of systems for the batched
geometry tests."""

import os
from pathlib import Path

import numpy as np
import pytest

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def cli_env():
    """Environment for a child process that must import this suite's `faframe`.

    `PYTHONPATH` starts with the absolute directory holding the `faframe`
    package this process imported (a checkout's `src/` or an installed copy),
    followed by any inherited entries. A relative inherited entry such as
    `src` would point nowhere once the child runs in another directory.
    """
    import faframe

    root = str(Path(faframe.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited]) if inherited else root
    return env


# A regular octahedron: isotropic covariance, so its PCA frame is degenerate
# in every group.
_OCTAHEDRON = np.concatenate([np.eye(3), -np.eye(3)]) * 1.3


def _ring(count: int, radius: float, z: float = 0.0) -> np.ndarray:
    """``count`` points evenly spaced on a circle about the z axis."""
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.stack([radius * np.cos(angles), radius * np.sin(angles), np.full(count, z)], axis=1)


# Small molecules as (positions in angstrom, atomic numbers). Water's PCA
# spectrum is simple; each of the others has tied eigenvalues, so its PCA
# frame is degenerate: CO2 is linear, NH3 and benzene are symmetric tops,
# and the octahedron is isotropic.
MOLECULES = {
    "H2O": (np.array([[0.0, 0.0, 0.1173], [0.0, 0.7572, -0.4692], [0.0, -0.7572, -0.4692]]),
            np.array([8, 1, 1])),
    "CO2": (np.array([[0.0, 0.0, 0.0], [1.16, 0.0, 0.0], [-1.16, 0.0, 0.0]]), np.array([6, 8, 8])),
    "NH3": (np.concatenate([[[0.0, 0.0, 0.0]], _ring(3, 0.9377, -0.3811)]), np.array([7, 1, 1, 1])),
    "benzene": (np.concatenate([_ring(6, 1.39), _ring(6, 2.47)]), np.array([6] * 6 + [1] * 6)),
    "octahedron": (_OCTAHEDRON, np.full(6, 6)),
}


def _draw_mixed_batch(rng: np.random.Generator) -> list:
    """1-11 systems in random order: molecules of 1-40 atoms far from the
    origin, octahedra (degenerate frames), crystals with random pbc whose
    atoms lie in the cell or up to a cell outside it, and repeats."""
    from faframe.geometry import AtomicSystem

    systems = []
    for _ in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(5))
        n = int(rng.integers(1, 41))
        numbers = rng.integers(1, 9, n)
        if kind == 0 and systems:
            systems.append(systems[int(rng.integers(len(systems)))])
        elif kind <= 1:
            positions = rng.standard_normal((n, 3)) * rng.uniform(0.5, 4.0)
            systems.append(AtomicSystem(positions + rng.uniform(-50.0, 50.0, 3), numbers))
        elif kind == 2:
            systems.append(AtomicSystem(_OCTAHEDRON + rng.uniform(-5.0, 5.0, 3), np.full(6, 6)))
        else:
            cell = np.diag(rng.uniform(4.0, 12.0, 3)) + rng.uniform(-1.0, 1.0, (3, 3))
            frac = rng.uniform(0.0, 1.0, (n, 3)) if kind == 3 else rng.uniform(-1.0, 2.0, (n, 3))
            pbc = tuple(bool(flag) for flag in rng.integers(0, 2, 3))
            systems.append(AtomicSystem(frac @ cell, numbers, cell=cell,
                                        pbc=pbc if any(pbc) else (True, True, True)))
    return systems


@pytest.fixture
def mixed_batch():
    """A function drawing one mixed batch of systems from a generator."""
    return _draw_mixed_batch
