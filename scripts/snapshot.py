#!/usr/bin/env python3
"""Write the package's observable outputs, one file per case, for ``diff -r``.

Run from anywhere; the package is imported from ``src/`` of this checkout::

    python3 scripts/snapshot.py OUTDIR [--tiny]

Two checkouts that should compute the same bits write identical
directories, so a change that claims to keep every bit is checked with
``diff -r`` of the two snapshots. Every case is seeded; floats are written
with ``float.hex`` or as JSON reprs, which round-trip exactly.

The cases:

- ``inputs/``: the panel of systems as extended XYZ, and the audit's config;
- ``audit_<mode>_<group>.{json,txt}``: ``faframe audit`` for every
  ``fa_mode`` and group, its JSON report, table, warnings and exit code;
- ``canonicalize_<group>[_sample].xyz``: ``faframe canonicalize`` of the
  panel, with every view and with ``--sample``;
- ``bench_<family>.json``: a tiny ``faframe bench`` of each family;
- ``gradcheck.json``: ``faframe gradcheck``;
- ``forward.txt``: ``forward`` energies and forces of every system, in full
  mode, in full mode with ``VIEW_CHUNK_BYTES=1`` (one view per chunk), and
  in stochastic mode;
- ``train.txt``: the losses of 3 ``train_step`` calls and a sha256 of every
  parameter after them;
- ``audit_rng.json``: ``audit_model``'s report and the rng state after it,
  for every ``fa_mode`` and group.

The default panel runs the default 5.42M-parameter model for ``forward`` and
``train_step``, so the BLAS kernels of the full widths are the ones checked;
it takes a few minutes. ``--tiny`` runs small models on fewer systems in
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faframe import cli, diffmath, faenet  # noqa: E402
from faframe.audit import audit_model  # noqa: E402
from faframe.faenet import FAENetConfig, FAENetModel, TrainSample  # noqa: E402
from faframe.frames import FA_MODES  # noqa: E402
from faframe.geometry import E3, SE3, Z_AXIS_2D, AtomicSystem  # noqa: E402
from faframe.xyz import format_xyz  # noqa: E402

GROUPS = (E3, SE3, Z_AXIS_2D)
ELEMENTS = (1, 6, 7, 8)

# A small model for the audits, both panels; the tiny panel also runs
# forward and training on it.
SMALL_CONFIG = dict(hidden_channels=16, num_filters=24, num_gaussians=8, num_interactions=2,
                    cutoff=4.0, max_neighbors=12, predict_forces=True, force_head_hidden=8)
# The gradient check's own config with fields overridden for the tiny panel.
TINY_GRADCHECK = dict(hidden_channels=4, num_filters=4, num_interactions=1, force_head_hidden=4)


def molecule(rng: np.random.Generator, n: int) -> AtomicSystem:
    """n atoms in an ellipsoidal box, so the frame is far from degenerate."""
    positions = rng.uniform(-1.0, 1.0, (n, 3)) * np.array([2.4, 1.8, 1.2])
    return AtomicSystem(positions, rng.choice(ELEMENTS, n))


def crystal(rng: np.random.Generator, n: int) -> AtomicSystem:
    """A triclinic, fully periodic crystal at uniform fractional positions."""
    cell = np.diag([4.1, 3.7, 3.3]) + rng.uniform(-0.4, 0.4, (3, 3))
    positions = rng.uniform(0.0, 1.0, (n, 3)) @ cell
    return AtomicSystem(positions, rng.choice((8, 12, 14), n), cell=cell, pbc=(True, True, True))


def chain(n: int) -> AtomicSystem:
    """Atoms on a line: a degenerate frame."""
    return AtomicSystem(np.outer(np.arange(n) * 1.1, [1.0, 0.0, 0.0]), np.full(n, 6))


def panel(tiny: bool) -> dict[str, AtomicSystem]:
    rng = np.random.default_rng(2023)
    systems = {"a_molecule": molecule(rng, 6 if tiny else 16)}
    if not tiny:
        systems["b_molecule"] = molecule(rng, 9)
    systems["c_crystal"] = crystal(rng, 4 if tiny else 8)
    systems["d_chain"] = chain(3)
    return systems


def hexes(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def run_cli(out: Path, name: str, argv: list[str]):
    """Run ``faframe argv``; its exit code, stdout and stderr go to ``name``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    (out / name).write_text(f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                            f"--- stderr\n{stderr.getvalue()}")


def write_inputs(out: Path, systems: dict[str, AtomicSystem]) -> tuple[Path, Path, Path]:
    inputs = out / "inputs"
    (inputs / "systems").mkdir(parents=True)
    for name, system in systems.items():
        (inputs / "systems" / f"{name}.xyz").write_text(format_xyz(system))
    joined = inputs / "panel.xyz"
    joined.write_text("".join(format_xyz(system) for system in systems.values()))
    config = inputs / "audit_config.json"
    config.write_text(json.dumps(SMALL_CONFIG, sort_keys=True) + "\n")
    return inputs / "systems", joined, config


def cli_cases(out: Path, systems: dict[str, AtomicSystem], tiny: bool):
    systems_dir, joined, config = write_inputs(out, systems)
    transforms = "1" if tiny else "3"
    for mode in FA_MODES:
        for group in GROUPS:
            stem = f"audit_{mode}_{group}"
            run_cli(out, f"{stem}.txt", ["audit", str(systems_dir), "--config", str(config),
                                         "--fa-mode", mode, "--group", group,
                                         "--transforms", transforms, "--seed", "5",
                                         "-o", str(out / f"{stem}.json")])
    for group in GROUPS:
        for suffix, extra in (("", []), ("_sample", ["--sample", "3"])):
            stem = f"canonicalize_{group}{suffix}"
            run_cli(out, f"{stem}.txt", ["canonicalize", str(joined), "--group", group,
                                         "-o", str(out / f"{stem}.xyz"), *extra])
    epochs = "3" if tiny else "10"
    for family, extra in (("kchains", ["--k", "4"]), ("rotsym", ["--L", "3"])):
        run_cli(out, f"bench_{family}.txt", ["bench", family, *extra, "--seeds", "1",
                                             "--epochs", epochs,
                                             "-o", str(out / f"bench_{family}.json")])
    gradcheck = ["gradcheck", "-o", str(out / "gradcheck.json")]
    if tiny:
        tiny_config = out / "inputs" / "gradcheck_config.json"
        tiny_config.write_text(json.dumps(TINY_GRADCHECK, sort_keys=True) + "\n")
        gradcheck += ["--config", str(tiny_config)]
    run_cli(out, "gradcheck.txt", gradcheck)


def forward_case(out: Path, systems: dict[str, AtomicSystem], config: FAENetConfig):
    model = FAENetModel(config, np.random.default_rng(11))
    lines = []
    chunk_bytes = faenet.VIEW_CHUNK_BYTES
    for name, system in systems.items():
        runs = {}
        runs["full"] = faenet.forward(model, system, "full", E3)
        faenet.VIEW_CHUNK_BYTES = 1
        try:
            runs["full_one_view_per_chunk"] = faenet.forward(model, system, "full", E3)
        finally:
            faenet.VIEW_CHUNK_BYTES = chunk_bytes
        runs["stochastic"] = faenet.forward(model, system, "stochastic", E3,
                                            np.random.default_rng(12))
        for run, prediction in runs.items():
            lines.append(f"{name} {run} energy {hexes(prediction.energy)}")
            lines.append(f"{name} {run} forces {hexes(prediction.forces)}")
    (out / "forward.txt").write_text("\n".join(lines) + "\n")


def train_case(out: Path, config: FAENetConfig, sizes: tuple[int, ...]):
    model = FAENetModel(config, np.random.default_rng(21))
    optimizer = diffmath.AdamW(model.parameters(), learning_rate=1e-3, weight_decay=0.01)
    rng = np.random.default_rng(22)
    lines = []
    for step in range(3):
        batch = [TrainSample(molecule(rng, n), float(rng.normal()), rng.normal(0.0, 0.1, (n, 3)))
                 for n in sizes]
        loss = faenet.train_step(model, batch, optimizer, force_coeff=1.0, fa_mode="stochastic",
                                 group=E3, rng=rng)
        lines.append(f"step {step} loss {hexes(loss)}")
    digest = hashlib.sha256()
    for name, value in model.params.items():
        digest.update(name.encode())
        digest.update(value.data.tobytes())
    lines.append(f"parameters sha256 {digest.hexdigest()}")
    (out / "train.txt").write_text("\n".join(lines) + "\n")


def audit_rng_case(out: Path, systems: dict[str, AtomicSystem]):
    model = FAENetModel(FAENetConfig(**SMALL_CONFIG), np.random.default_rng(31))
    records = {}
    for mode in FA_MODES:
        for group in GROUPS:
            rng = np.random.default_rng(32)
            report = audit_model(model, list(systems.values()), fa_mode=mode, group=group,
                                 num_transforms=2, rng=rng)
            records[f"{mode}_{group}"] = {"report": report.to_dict(),
                                          "rng_state": rng.bit_generator.state}
    (out / "audit_rng.json").write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")


def snapshot(out: Path, tiny: bool):
    """Write every case into ``out``, which must not exist yet."""
    out.mkdir(parents=True)
    systems = panel(tiny)
    cli_cases(out, systems, tiny)
    config = FAENetConfig(**SMALL_CONFIG) if tiny else FAENetConfig(predict_forces=True)
    forward_case(out, systems, config)
    train_case(out, config, (4, 6) if tiny else (8, 9, 10, 11, 12, 14, 16, 32))
    audit_rng_case(out, systems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", help="directory to create and fill")
    parser.add_argument("--tiny", action="store_true", help="small models, fewer systems")
    args = parser.parse_args(argv)
    snapshot(Path(args.outdir), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
