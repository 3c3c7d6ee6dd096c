"""Extended-XYZ round trips and parse failure modes."""

import numpy as np
import pytest

from faframe.errors import UnknownElement, XYZParseError
from faframe.geometry import AtomicSystem
from faframe.xyz import format_xyz, read_xyz, read_xyz_blocks, write_xyz


def test_roundtrip_aperiodic(tmp_path):
    rng = np.random.default_rng(0)
    system = AtomicSystem(rng.standard_normal((5, 3)), np.array([1, 6, 8, 17, 92]))
    path = tmp_path / "mol.xyz"
    write_xyz(path, system)
    back = read_xyz(path)
    np.testing.assert_allclose(back.positions, system.positions, atol=1e-10)
    np.testing.assert_array_equal(back.atomic_numbers, system.atomic_numbers)
    assert back.cell is None
    assert back.pbc == (False, False, False)


def test_roundtrip_periodic(tmp_path):
    rng = np.random.default_rng(1)
    cell = np.diag([10.0, 11.0, 12.0]) + rng.uniform(-0.2, 0.2, (3, 3))
    system = AtomicSystem(
        rng.uniform(0, 10, (4, 3)), np.array([14, 14, 8, 8]),
        cell=cell, pbc=(True, True, False),
    )
    path = tmp_path / "slab.xyz"
    write_xyz(path, system)
    back = read_xyz(path)
    np.testing.assert_allclose(back.cell, cell, atol=1e-10)
    assert back.pbc == (True, True, False)


def test_multi_block_append(tmp_path):
    path = tmp_path / "traj.xyz"
    a = AtomicSystem(np.zeros((1, 3)), np.array([6]))
    b = AtomicSystem(np.ones((2, 3)), np.array([1, 1]))
    write_xyz(path, a)
    write_xyz(path, b, append=True)
    blocks = read_xyz_blocks(path)
    assert len(blocks) == 2
    assert blocks[0][0].num_atoms == 1
    assert blocks[1][0].num_atoms == 2


def test_extra_comment_keys_roundtrip(tmp_path):
    path = tmp_path / "tagged.xyz"
    system = AtomicSystem(np.zeros((1, 3)), np.array([6]))
    write_xyz(path, system, extra={"label": "with spaces", "index": 3})
    _, comment = read_xyz_blocks(path)[0]
    assert comment["label"] == "with spaces"
    assert comment["index"] == "3"


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("2\n\nC 0 0 0\nC 0 0\n")
    with pytest.raises(XYZParseError) as err:
        read_xyz(path)
    assert "line 4" in str(err.value)


def test_bad_atom_count(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("zz\n\nC 0 0 0\n")
    with pytest.raises(XYZParseError):
        read_xyz(path)


def test_truncated_block(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("3\n\nC 0 0 0\n")
    with pytest.raises(XYZParseError):
        read_xyz(path)


def test_unknown_symbol(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1\n\nQq 0 0 0\n")
    with pytest.raises((XYZParseError, UnknownElement)):
        read_xyz(path)


def test_malformed_lattice(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text('1\nLattice="1 0 0 0 1 0" pbc="T T T"\nC 0 0 0\n')
    with pytest.raises(XYZParseError):
        read_xyz(path)


@pytest.mark.parametrize("comment, reason", [
    ('pbc="T T T"', "no cell given"),
    ('Lattice="1 0 0 2 0 0 0 0 1" pbc="T F F"', "singular"),
])
def test_unusable_cell_names_its_comment_line(tmp_path, comment, reason):
    # The second block is the bad one; its comment is line 5.
    path = tmp_path / "bad.xyz"
    path.write_text(f"1\n\nC 0 0 0\n1\n{comment}\nC 0 0 0\n")
    with pytest.raises(XYZParseError, match=f"^line 5: .*{reason}"):
        read_xyz_blocks(path)


def test_format_emits_lattice_and_pbc():
    system = AtomicSystem(
        np.zeros((1, 3)), np.array([6]),
        cell=np.eye(3) * 5, pbc=(True, True, True),
    )
    text = format_xyz(system)
    assert 'Lattice="' in text
    assert 'pbc="T T T"' in text
