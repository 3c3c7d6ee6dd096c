"""Command line interface: exit codes, JSON determinism, output layout."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest

from faframe import cli
from faframe import diffmath as dm
from faframe.cli import EXIT_DEGENERATE, EXIT_ERROR, EXIT_OK, main
from faframe.faenet import GRADCHECK_CONFIG
from faframe.frames import compute_frame
from faframe.geometry import E3, AtomicSystem, apply_transform, random_transform
from faframe.xyz import format_xyz, read_xyz_blocks

TINY_CONFIG = {
    "hidden_channels": 8,
    "num_filters": 8,
    "num_gaussians": 4,
    "num_interactions": 1,
    "cutoff": 4.0,
    "max_neighbors": 8,
}


def write_systems(path, seed=0, count=3, n_range=(4, 7)):
    rng = np.random.default_rng(seed)
    systems = []
    text = ""
    for _ in range(count):
        n = int(rng.integers(*n_range))
        system = AtomicSystem(
            rng.standard_normal((n, 3)) * 1.5, rng.integers(1, 18, size=n)
        )
        systems.append(system)
        text += format_xyz(system)
    path.write_text(text)
    return systems


def write_config(path, **extra):
    payload = dict(TINY_CONFIG)
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return str(path)


# -------------------------------------------------------------- canonicalize


def test_canonicalize_emits_all_frame_views(tmp_path, capsys):
    source = tmp_path / "in.xyz"
    systems = write_systems(source, seed=1, count=2)
    out = tmp_path / "out.xyz"
    code = main(["canonicalize", str(source), "-o", str(out)])
    assert code == EXIT_OK
    blocks = read_xyz_blocks(out)
    assert len(blocks) == 16
    for system, extra in blocks:
        assert extra["group"] == "E3"
        assert int(extra["frame_index"]) in range(8)
        # every emitted view is centered
        np.testing.assert_allclose(system.positions.mean(axis=0), 0, atol=1e-8)
    by_system = {}
    for system, extra in blocks:
        by_system.setdefault(int(extra["system_index"]), []).append(system.positions)
    assert sorted(by_system) == [0, 1]
    assert all(len(v) == 8 for v in by_system.values())


def test_canonicalize_is_pose_independent(tmp_path):
    rng = np.random.default_rng(2)
    system = AtomicSystem(rng.standard_normal((5, 3)), rng.integers(1, 10, size=5))
    moved = apply_transform(system, random_transform(E3, rng))

    outputs = []
    for tag, variant in (("a", system), ("b", moved)):
        source = tmp_path / f"{tag}.xyz"
        source.write_text(format_xyz(variant))
        out = tmp_path / f"{tag}_canon.xyz"
        assert main(["canonicalize", str(source), "-o", str(out)]) == EXIT_OK
        outputs.append([s.positions for s, _ in read_xyz_blocks(out)])

    first, second = outputs
    assert len(first) == len(second) == 8
    unused = list(range(8))
    for block in first:
        match = next(
            (j for j in unused if np.abs(second[j] - block).max() < 1e-8), None
        )
        assert match is not None
        unused.remove(match)


def test_canonicalize_sample_is_deterministic(tmp_path):
    source = tmp_path / "in.xyz"
    write_systems(source, seed=3, count=2)
    out_a = tmp_path / "a.xyz"
    out_b = tmp_path / "b.xyz"
    assert main(["canonicalize", str(source), "--sample", "5", "-o", str(out_a)]) == EXIT_OK
    assert main(["canonicalize", str(source), "--sample", "5", "-o", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    blocks = read_xyz_blocks(out_a)
    assert len(blocks) == 2


def test_canonicalize_flags_degenerate_input(tmp_path, capsys):
    source = tmp_path / "in.xyz"
    source.write_text(format_xyz(AtomicSystem(np.zeros((1, 3)), np.array([6]))))
    code = main(["canonicalize", str(source)])
    captured = capsys.readouterr()
    assert code == EXIT_DEGENERATE
    assert "degenerate" in captured.err
    assert captured.out.startswith("1\n")


def test_canonicalize_missing_file_is_an_error(tmp_path, capsys):
    code = main(["canonicalize", str(tmp_path / "absent.xyz")])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_canonicalize_rejects_non_finite_coordinates(tmp_path, capsys, bad):
    source = tmp_path / "in.xyz"
    source.write_text(f"3\n\nC 0 0 0\nO 1.2 0 0\nH 0 {bad} 0.5\n")
    code = main(["canonicalize", str(source)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert "faframe: error: positions contain NaN or inf" in captured.err


# --------------------------------------------------------------------- audit


def test_audit_reports_and_json_identical_across_runs(tmp_path, capsys):
    systems_dir = tmp_path / "systems"
    systems_dir.mkdir()
    write_systems(systems_dir / "batch.xyz", seed=4, count=3)
    config = write_config(tmp_path / "config.json")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = [
        "audit", str(systems_dir), "--config", config, "--fa-mode", "full",
        "--transforms", "3", "--seed", "11",
    ]
    assert main(argv + ["-o", str(out_a)]) == EXIT_OK
    table = capsys.readouterr().out
    assert "Rot-I" in table and "full" in table
    assert main(argv + ["-o", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["pos"] == 1
    assert payload["rot_i"] < 1e-6
    assert payload["precision"] == "float64"
    assert payload["seed"] == 11
    assert len(payload["config_hash"]) == 64


def test_audit_flag_overrides_config_file(tmp_path, capsys):
    systems_dir = tmp_path / "systems"
    systems_dir.mkdir()
    write_systems(systems_dir / "batch.xyz", seed=5, count=2)
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "report.json"
    argv = [
        "audit", str(systems_dir), "--config", config, "--fa-mode", "none",
        "--transforms", "2", "--layers", "2", "-o", str(out),
    ]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    baseline = json.loads(out.read_text())
    assert baseline["pos"] == 0
    # a different layer count must change the model, hence the hash
    argv2 = argv[:]
    argv2[argv2.index("--layers") + 1] = "3"
    assert main(argv2) == EXIT_OK
    capsys.readouterr()
    assert json.loads(out.read_text())["config_hash"] != baseline["config_hash"]


def test_audit_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["audit", str(empty)])
    assert code == EXIT_ERROR
    assert "no .xyz files" in capsys.readouterr().err


def test_audit_degenerate_systems_exit_code(tmp_path, capsys):
    systems_dir = tmp_path / "systems"
    systems_dir.mkdir()
    write_systems(systems_dir / "fine.xyz", seed=6, count=2)
    lone = AtomicSystem(np.array([[1.0, 1.0, 1.0]]), np.array([8]))
    (systems_dir / "lone.xyz").write_text(format_xyz(lone))
    config = write_config(tmp_path / "config.json")
    code = main([
        "audit", str(systems_dir), "--config", config, "--transforms", "2",
    ])
    captured = capsys.readouterr()
    assert code == EXIT_DEGENERATE
    assert "degenerate" in captured.err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_audit_rejects_fewer_than_one_transform(tmp_path, capsys, count):
    systems_dir = tmp_path / "systems"
    systems_dir.mkdir()
    write_systems(systems_dir / "batch.xyz", seed=7, count=1)
    config = write_config(tmp_path / "config.json")
    code = main(["audit", str(systems_dir), "--config", config, "--transforms", count])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert "num_transforms must be at least 1" in captured.err


def test_audit_rejects_unknown_config_keys(tmp_path, capsys):
    systems_dir = tmp_path / "systems"
    systems_dir.mkdir()
    write_systems(systems_dir / "batch.xyz", seed=7, count=1)
    bad = tmp_path / "bad.json"
    bad.write_text('{"hidden_channels": 8, "dropout": 0.1}')
    code = main(["audit", str(systems_dir), "--config", str(bad)])
    assert code == EXIT_ERROR
    assert "dropout" in capsys.readouterr().err


# --------------------------------------------------------------------- bench


def test_bench_kchains_json_layout(tmp_path, capsys):
    out = tmp_path / "bench.json"
    config = write_config(tmp_path / "config.json", energy_head="simple", cutoff=1.2)
    code = main([
        "bench", "kchains", "--k", "3", "--seeds", "1", "--epochs", "0",
        "--config", config, "-o", str(out),
    ])
    assert code == EXIT_OK
    summary = capsys.readouterr().out
    assert "kchains parameter=3" in summary
    assert "accuracy" in summary
    payload = json.loads(out.read_text())
    assert payload["family"] == "kchains"
    assert len(payload["results"]) == 1
    entry = payload["results"][0]
    assert entry["num_seeds"] == 1
    assert entry["std_accuracy"] == 0.0
    assert entry["min_alignment_residual"] > 0.1


def test_bench_rotsym_multiple_sizes(tmp_path, capsys):
    out = tmp_path / "bench.json"
    config = write_config(tmp_path / "config.json", energy_head="simple", cutoff=2.5)
    code = main([
        "bench", "rotsym", "--L", "2,3", "--seeds", "1", "--epochs", "0",
        "--config", config, "-o", str(out),
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert [entry["parameter"] for entry in payload["results"]] == [2, 3]


def test_bench_rejects_cross_family_flags(capsys):
    assert main(["bench", "kchains", "--L", "2", "--epochs", "0"]) == EXIT_ERROR
    assert main(["bench", "rotsym", "--k", "4", "--epochs", "0"]) == EXIT_ERROR
    capsys.readouterr()


def test_bench_rejects_degenerate_ring(capsys):
    code = main(["bench", "rotsym", "--L", "1", "--seeds", "1", "--epochs", "0"])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("angle", ["inf", "nan"])
def test_bench_rejects_a_non_finite_angle(capsys, angle):
    code = main(["bench", "rotsym", "--L", "3", "--angle", angle, "--seeds", "1",
                 "--epochs", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert f"twist angle must be a finite number of radians, got {angle}" in captured.err


def test_bench_rejects_fewer_than_one_seed(capsys):
    code = main(["bench", "kchains", "--seeds", "0", "--epochs", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert "num_seeds must be at least 1" in captured.err


@pytest.mark.parametrize("epochs", ["-1", "-2"])
def test_bench_rejects_negative_epochs(capsys, epochs):
    code = main(["bench", "kchains", "--seeds", "1", "--epochs", epochs])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert f"epochs must be at least 0, got {epochs}" in captured.err


def test_bench_config_file_sets_the_layer_count_unless_flagged(tmp_path, capsys):
    # flag > file > the benchmark's default config
    config = write_config(tmp_path / "config.json", num_interactions=3)
    out = tmp_path / "bench.json"

    def layers(*flags):
        argv = ["bench", "kchains", "--k", "2", "--seeds", "1", "--epochs", "0", *flags]
        assert main(argv + ["-o", str(out)]) == EXIT_OK
        return json.loads(out.read_text())["results"][0]["num_layers"]

    assert layers("--config", config) == 3
    assert layers("--config", config, "--layers", "2") == 2
    assert layers() == 1
    capsys.readouterr()


def test_bench_deterministic_json(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", energy_head="simple", cutoff=1.2)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = [
        "bench", "kchains", "--k", "2", "--seeds", "2", "--epochs", "2",
        "--seed", "9", "--config", config,
    ]
    assert main(argv + ["-o", str(out_a)]) == EXIT_OK
    assert main(argv + ["-o", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


# ----------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_reports_ops(tmp_path, capsys):
    out = tmp_path / "grad.json"
    code = main(["gradcheck", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "gradient check: PASS" in captured.out
    assert "full_forward_loss" in captured.out
    payload = json.loads(out.read_text())
    assert payload["status"] == "PASS"
    assert payload["max_rel_err"] < payload["tolerance"]
    assert "segment_sum" in payload["ops"]
    assert "slice_rows" in payload["ops"]
    assert "rotate_rows" in payload["ops"]


def test_gradcheck_detects_wrong_gradients(monkeypatch, capsys):
    true_sigmoid = dm.sigmoid

    def crooked_sigmoid(x):
        out = true_sigmoid(x)
        inner = out._backward

        def backward(grad):
            inner(grad * 1.01)

        out._backward = backward
        return out

    monkeypatch.setattr(dm, "sigmoid", crooked_sigmoid)
    code = main(["gradcheck"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "FAIL" in captured.out


@pytest.mark.parametrize("fields", [{}, {"num_interactions": 1}])
def test_gradcheck_config_file_fields_fall_back_to_the_gradcheck_config(
        tmp_path, monkeypatch, capsys, fields):
    # Flag > file > GRADCHECK_CONFIG, as bench falls back to its own
    # defaults; only the config reaching the check is looked at.
    seen = []

    def capture(config, seed):
        seen.append(config)
        return {"status": "PASS", "max_rel_err": 0.0, "worst_op": "add",
                "tolerance": 1e-4, "ops": {"add": 0.0}}

    monkeypatch.setattr(cli, "run_gradient_check", capture)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(fields))
    assert main(["gradcheck", "--config", str(path)]) == EXIT_OK
    assert main(["gradcheck"]) == EXIT_OK
    capsys.readouterr()
    assert seen[0] == replace(GRADCHECK_CONFIG, **fields)
    assert seen[1] == GRADCHECK_CONFIG


# ------------------------------------------------------------------- general


def test_unknown_subcommand_and_bare_invocation(capsys):
    assert main(["polish"]) == EXIT_ERROR
    assert main([]) == EXIT_ERROR
    capsys.readouterr()


def _script_entry(name):
    """The `module:function` that `[project.scripts]` in pyproject.toml names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    if tomllib is not None:
        return tomllib.loads(text)["project"]["scripts"][name]
    # Python 3.10 has no tomllib: read the one table line by line.
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    for line in table.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip().strip("\"'") == name:
            return value.strip().strip("\"'")
    raise KeyError(name)


def test_installed_entry_point_smoke(tmp_path, cli_env):
    """The `faframe` entry of `[project.scripts]` works as a command.

    The entry is run in a child process the way the console script pip
    generates runs it: `sys.argv[0] = "faframe"; sys.exit(main())`, so the
    return value of `main` must be the exit code and `main` must read
    `sys.argv`. Where a `faframe` executable is on PATH it must give the same
    results. Pip's own script generation is checked only there: without an
    installed script (the tier-1 command installs nothing) it goes unchecked.
    """
    module, func = _script_entry("faframe").split(":")
    shim = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv[0] = 'faframe'\nsys.exit({func}())\n"
    )
    commands = [[sys.executable, "-c", shim]]
    exe = shutil.which("faframe")
    if exe is not None:
        commands.append([exe])

    def run(command, *args):
        return subprocess.run(
            [*command, *args],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=cli_env,
        )

    source = tmp_path / "in.xyz"
    (system,) = write_systems(source, seed=8, count=1)
    for command in commands:
        result = run(command, "canonicalize", str(source), "--sample", "0")
        assert result.returncode == EXIT_OK, result.stderr
        view = tmp_path / "view.xyz"
        view.write_text(result.stdout)
        ((canonical, extra),) = read_xyz_blocks(view)
        assert extra["system_index"] == "0" and extra["group"] == "E3"
        np.testing.assert_array_equal(canonical.atomic_numbers, system.atomic_numbers)

        result = run(command, "polish")
        assert result.returncode == EXIT_ERROR, result.stderr
        assert result.stderr.startswith("usage: faframe ")
