"""``scripts/snapshot.py`` writes the same bytes for the same checkout.

Byte-identity claims between two checkouts are checked with ``diff -r`` of
their snapshots, which only means something if one checkout's snapshot
does not vary from run to run.
"""

import importlib.util
from pathlib import Path

from faframe.frames import FA_MODES
from faframe.geometry import E3, SE3, Z_AXIS_2D

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "snapshot.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_tiny_snapshot_writes_every_case_with_the_same_bytes_twice(tmp_path):
    snapshot = _load_script()
    first, second = tmp_path / "first", tmp_path / "second"
    assert snapshot.main([str(first), "--tiny"]) == 0
    assert snapshot.main([str(second), "--tiny"]) == 0
    files, again = _files(first), _files(second)
    assert sorted(files) == sorted(again)
    for name in files:
        assert files[name] == again[name], name

    groups = (E3, SE3, Z_AXIS_2D)
    expected = {f"audit_{mode}_{group}.json" for mode in FA_MODES for group in groups}
    expected |= {f"canonicalize_{group}{suffix}.xyz" for group in groups
                 for suffix in ("", "_sample")}
    expected |= {"bench_kchains.json", "bench_rotsym.json", "gradcheck.json", "forward.txt",
                 "train.txt", "audit_rng.json"}
    assert expected <= set(files)
    forward = files["forward.txt"].decode()
    for run in ("full", "full_one_view_per_chunk", "stochastic"):
        assert f"a_molecule {run} energy " in forward
        assert f"a_molecule {run} forces " in forward
    assert b"parameters sha256 " in files["train.txt"]
