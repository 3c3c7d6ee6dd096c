"""End-to-end acceptance suite.

Eleven numbered criteria, each with its stated tolerance and, where given,
its runtime budget. Every test records one PASS/FAIL line that the terminal
summary prints as a block.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import conftest
from faframe.audit import audit_model
from faframe.expressivity import run_benchmark
from faframe.faenet import (
    FAENetConfig,
    FAENetModel,
    forward,
    run_gradient_check,
    training_forward,
)
from faframe.frames import canonicalize, compute_frame
from faframe.geometry import (
    E3,
    SE3,
    Z_AXIS_2D,
    AtomicSystem,
    apply_transform,
    build_radius_graph,
    random_transform,
)


def _record(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def _aperiodic(rng, n, scale=2.5):
    return AtomicSystem(
        rng.standard_normal((n, 3)) * scale, rng.integers(1, 30, size=n)
    )


def _periodic(rng, n):
    # uncentred fractional positions: the centroid sits near the middle of
    # the cell, far from the origin
    cell = np.diag(rng.uniform(12.0, 16.0, 3)) + rng.uniform(-0.5, 0.5, (3, 3))
    positions = rng.uniform(0.0, 1.0, (n, 3)) @ cell
    return AtomicSystem(
        positions, rng.integers(1, 30, size=n), cell=cell, pbc=(True, True, True)
    )


def _nondegenerate(rng, maker, n):
    while True:
        system = maker(rng, n)
        if not compute_frame(system, E3).degenerate:
            return system


def test_criterion_01_full_fa_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    config = FAENetConfig(
        hidden_channels=16, num_filters=16, num_gaussians=8, num_interactions=2,
        cutoff=5.0, max_neighbors=12, predict_forces=True, force_head_hidden=16,
    )
    model = FAENetModel(config, np.random.default_rng(7))
    worst_energy = 0.0
    worst_force = 0.0
    for index in range(50):
        n = int(rng.integers(3, 31))
        maker = _periodic if index % 2 else _aperiodic
        system = _nondegenerate(rng, maker, n)
        base = forward(model, system, fa_mode="full")
        force_bound = 1e-6 * (1.0 + np.abs(base.forces).max())
        for _ in range(20):
            g = random_transform(E3, rng)
            pred = forward(model, apply_transform(system, g), fa_mode="full")
            rel = abs(pred.energy - base.energy) / max(abs(base.energy), 1e-12)
            worst_energy = max(worst_energy, rel)
            residual = np.abs(pred.forces - base.forces @ g.rotation.T).max()
            worst_force = max(worst_force, residual / force_bound)
    elapsed = time.monotonic() - start
    ok = worst_energy <= 1e-6 and worst_force <= 1.0 and elapsed < 120
    _record(
        1, "full frame-averaged invariance", ok,
        f"max rel dE {worst_energy:.2e}, force residual at {worst_force:.2e} "
        f"of bound, {elapsed:.0f}s",
    )


def test_criterion_02_frame_equivariance_as_sets():
    start = time.monotonic()
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(200):
        system = _nondegenerate(rng, _aperiodic, int(rng.integers(3, 13)))
        g = random_transform(E3, rng)
        expected = [g.compose(el) for el in compute_frame(system, E3).elements]
        got = list(compute_frame(apply_transform(system, g), E3).elements)
        for want in expected:
            best = min(
                max(
                    np.abs(el.rotation - want.rotation).max(),
                    np.abs(el.translation - want.translation).max(),
                )
                for el in got
            )
            worst = max(worst, best)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10
    _record(
        2, "frame equivariance as sets", ok,
        f"worst element mismatch {worst:.2e}, {elapsed:.1f}s",
    )


def _canonical_multiset(system, group=E3):
    views = []
    for element in compute_frame(system, group).elements:
        view = canonicalize(system, element).system
        block = view.positions
        if view.cell is not None:
            block = np.concatenate([block, view.cell], axis=0)
        views.append(block)
    return views


def test_criterion_03_canonical_multiset_equality():
    start = time.monotonic()
    rng = np.random.default_rng(300)
    worst = 0.0
    for index in range(100):
        maker = _periodic if index % 2 else _aperiodic
        system = _nondegenerate(rng, maker, int(rng.integers(3, 13)))
        moved = apply_transform(system, random_transform(E3, rng))
        ours = _canonical_multiset(system)
        theirs = _canonical_multiset(moved)
        unused = list(range(len(theirs)))
        for block in ours:
            gaps = [(np.abs(block - theirs[j]).max(), j) for j in unused]
            best, j = min(gaps)
            worst = max(worst, best)
            unused.remove(j)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30
    _record(
        3, "canonical views identical across poses", ok,
        f"worst matched coordinate gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_frame_cardinality():
    rng = np.random.default_rng(400)
    ok = True
    for _ in range(100):
        system = _nondegenerate(rng, _aperiodic, int(rng.integers(3, 13)))
        ok = ok and len(compute_frame(system, E3).elements) == 8
        ok = ok and len(compute_frame(system, SE3).elements) == 4
        ok = ok and len(compute_frame(system, Z_AXIS_2D).elements) == 2
    _record(4, "frame cardinality 8/4/2", ok, "100 systems, exact")


def test_criterion_05_stochastic_mean_matches_full():
    start = time.monotonic()
    rng = np.random.default_rng(55)
    config = FAENetConfig(
        hidden_channels=8, num_filters=8, num_gaussians=4, num_interactions=1,
        cutoff=4.0, max_neighbors=8,
    )
    model = FAENetModel(config, np.random.default_rng(8))
    worst_z = 0.0
    ok = True
    for _ in range(10):
        system = _nondegenerate(
            rng,
            lambda r, n: _aperiodic(r, n, scale=1.2),
            int(rng.integers(4, 9)),
        )
        full = forward(model, system, fa_mode="full").energy
        draws = []
        for _ in range(20):
            energies, _ = training_forward(
                model, [system] * 500, "stochastic", E3, rng, False
            )
            draws.extend(energies.data[:, 0].tolist())
        draws = np.array(draws)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        gap = abs(draws.mean() - full)
        # the epsilon floor covers systems whose views coincide numerically
        ok = ok and gap <= max(3 * se, 1e-12 * (1.0 + abs(full)))
        if se > 0:
            worst_z = max(worst_z, gap / se)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _record(
        5, "stochastic sampling consistent with full averaging", ok,
        f"10 systems x 10^4 draws, worst z {worst_z:.2f}, {elapsed:.0f}s",
    )


def _brute_force_edges(system, cutoff):
    """All directed edges over the 27 periodic offsets, no neighbor cap."""
    n = system.num_atoms
    cell = system.cell
    offsets = [-1, 0, 1]
    edges = {}
    for dst in range(n):
        for src in range(n):
            for ox in offsets:
                for oy in offsets:
                    for oz in offsets:
                        off = (ox, oy, oz)
                        if dst == src and off == (0, 0, 0):
                            continue
                        vec = (
                            system.positions[dst]
                            - system.positions[src]
                            + np.array(off, dtype=np.float64) @ cell
                        )
                        dist = float(np.linalg.norm(vec))
                        if dist < cutoff:
                            edges[(dst, src, off)] = dist
    return edges


def test_criterion_06_pbc_graph_matches_brute_force():
    rng = np.random.default_rng(600)
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        cell = np.diag(rng.uniform(6.0, 10.0, 3)) + rng.uniform(-0.4, 0.4, (3, 3))
        positions = rng.uniform(0.0, 1.0, (n, 3)) @ cell
        system = AtomicSystem(
            positions, rng.integers(1, 30, size=n), cell=cell, pbc=(True, True, True)
        )
        graph = build_radius_graph(system, 3.0, 256)
        got = {
            (int(d), int(s), tuple(int(o) for o in off)): float(dist)
            for d, s, off, dist in zip(
                graph.dst, graph.src, graph.offsets, graph.distances
            )
        }
        expected = _brute_force_edges(system, 3.0)
        if set(got) != set(expected):
            ok = False
            break
        for key, dist in expected.items():
            worst = max(worst, abs(got[key] - dist))
    ok = ok and worst <= 1e-9
    _record(
        6, "periodic graph matches 27-offset brute force", ok,
        f"100 systems, worst distance gap {worst:.2e}",
    )


def test_criterion_07_gradient_check():
    report = run_gradient_check()
    ok = report["status"] == "PASS" and report["max_rel_err"] < 1e-4
    _record(
        7, "autodiff matches finite differences", ok,
        f"max rel err {report['max_rel_err']:.2e} in {report['worst_op']}",
    )


def test_criterion_08_k_chain_benchmark():
    start = time.monotonic()
    result = run_benchmark("kchains", 4, num_seeds=10)
    elapsed = time.monotonic() - start
    ok = (
        result.perfect_seeds >= 8
        and result.mean_accuracy >= 0.95
        and elapsed < 600
    )
    _record(
        8, "k-chain discrimination with one layer", ok,
        f"perfect {result.perfect_seeds}/10, mean {result.mean_accuracy:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_rotational_symmetry_benchmark():
    details = []
    ok = True
    for length in (2, 3, 5, 7):
        result = run_benchmark("rotsym", length, num_seeds=10)
        ok = ok and result.perfect_seeds >= 8 and result.mean_accuracy >= 0.95
        details.append(f"L={length}: {result.perfect_seeds}/10")
    _record(9, "ring-twist discrimination with one layer", ok, ", ".join(details))


def test_criterion_10_audit_ordering():
    start = time.monotonic()
    config = FAENetConfig(
        hidden_channels=16, num_filters=16, num_gaussians=8, num_interactions=2,
        cutoff=5.0, max_neighbors=12,
    )
    sys_rng = np.random.default_rng(100)
    systems = [
        _nondegenerate(sys_rng, _aperiodic, int(sys_rng.integers(4, 11)))
        for _ in range(24)
    ]
    rows = {"full": [], "stochastic": [], "none": []}
    for rep in range(20):
        model = FAENetModel(config, np.random.default_rng([rep, 0]))
        for method in rows:
            report = audit_model(
                model, systems, fa_mode=method, num_transforms=20,
                rng=np.random.default_rng([rep, 1]),
            )
            rows[method].append(report.rot_i)
    medians = {m: float(np.median(v)) for m, v in rows.items()}
    elapsed = time.monotonic() - start
    ok = (
        medians["full"] < medians["stochastic"] < medians["none"]
        and elapsed < 300
    )
    _record(
        10, "rotation gap ordering across methods", ok,
        f"medians {medians['full']:.1e} < {medians['stochastic']:.1f} "
        f"< {medians['none']:.1f} meV, {elapsed:.0f}s",
    )


def _run_cli(argv, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-m", "faframe.cli", *argv],
        capture_output=True, text=True, timeout=300, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_11_cli_determinism(tmp_path, cli_env):
    from faframe.xyz import format_xyz

    rng = np.random.default_rng(1100)
    systems_dir = tmp_path / "systems"
    systems_dir.mkdir()
    text = "".join(
        format_xyz(_aperiodic(rng, int(rng.integers(4, 7)))) for _ in range(2)
    )
    (systems_dir / "input.xyz").write_text(text)
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps({
        "hidden_channels": 8, "num_filters": 8, "num_gaussians": 4,
        "num_interactions": 1, "cutoff": 4.0, "max_neighbors": 8,
        "energy_head": "simple",
    }))

    commands = {
        "canonicalize": [
            "canonicalize", str(systems_dir / "input.xyz"), "--sample", "3",
        ],
        "audit": [
            "audit", str(systems_dir), "--config", str(config_path),
            "--transforms", "2", "--seed", "5",
        ],
        "bench": [
            "bench", "kchains", "--k", "2", "--seeds", "1", "--epochs", "2",
            "--seed", "4", "--config", str(config_path),
        ],
        "gradcheck": ["gradcheck", "--seed", "1"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.out"
            _run_cli(argv + ["-o", str(out)], cwd=tmp_path, env=cli_env)
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
        if name != "canonicalize":
            json.loads(outputs[0].decode())
    _record(
        11, "repeated CLI runs byte-identical", not mismatched,
        "all four subcommands" if not mismatched else f"mismatch in {mismatched}",
    )
