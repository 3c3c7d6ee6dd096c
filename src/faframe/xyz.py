"""Extended-XYZ reading and writing.

A block is::

    <natoms>
    key=value pairs, e.g. Lattice="ax ay az bx by bz cx cy cz" pbc="T T T"
    Symbol x y z        (one line per atom)

The nine Lattice numbers are row-major: the first three are the first
lattice vector. Values containing spaces must be double-quoted. Unknown
keys are preserved in the returned comment mapping. Files may concatenate
several blocks back to back.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .elements import number_to_symbol, symbol_to_number
from .errors import FaframeError, XYZParseError
from .geometry import AtomicSystem

_COORD_FORMAT = "{:.12f}"


def _parse_comment(line: str, lineno: int) -> dict[str, str]:
    """Split a comment line into key=value pairs, honoring double quotes."""
    fields: dict[str, str] = {}
    i, n = 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        eq = line.find("=", i)
        if eq < 0:
            raise XYZParseError(f"line {lineno}: expected key=value, got {line[i:]!r}")
        key = line[i:eq].strip()
        if not key:
            raise XYZParseError(f"line {lineno}: empty key before '='")
        i = eq + 1
        if i < n and line[i] == '"':
            end = line.find('"', i + 1)
            if end < 0:
                raise XYZParseError(f"line {lineno}: unterminated quote")
            fields[key] = line[i + 1 : end]
            i = end + 1
        else:
            end = i
            while end < n and not line[end].isspace():
                end += 1
            fields[key] = line[i:end]
            i = end
    return fields


def _parse_bool_triplet(text: str, lineno: int) -> tuple[bool, bool, bool]:
    tokens = text.split()
    if len(tokens) != 3:
        raise XYZParseError(f"line {lineno}: pbc needs three flags, got {text!r}")
    flags = []
    for token in tokens:
        upper = token.upper()
        if upper in ("T", "TRUE", "1"):
            flags.append(True)
        elif upper in ("F", "FALSE", "0"):
            flags.append(False)
        else:
            raise XYZParseError(f"line {lineno}: bad pbc flag {token!r}")
    return tuple(flags)


def _read_block(lines: list[str], start: int) -> tuple[AtomicSystem, dict[str, str], int]:
    lineno = start + 1
    header = lines[start].strip()
    try:
        natoms = int(header)
    except ValueError:
        raise XYZParseError(f"line {lineno}: expected an atom count, got {header!r}") from None
    if natoms < 1:
        raise XYZParseError(f"line {lineno}: atom count must be >= 1, got {natoms}")
    if start + 1 >= len(lines):
        raise XYZParseError(f"line {lineno + 1}: missing comment line")
    comment = _parse_comment(lines[start + 1].rstrip("\n"), lineno + 1)

    cell = None
    if "Lattice" in comment:
        values = comment["Lattice"].split()
        if len(values) != 9:
            raise XYZParseError(f"line {lineno + 1}: Lattice needs 9 numbers, got {len(values)}")
        try:
            cell = np.array([float(v) for v in values]).reshape(3, 3)
        except ValueError:
            raise XYZParseError(f"line {lineno + 1}: non-numeric Lattice entry") from None
    pbc = (False, False, False)
    if "pbc" in comment:
        pbc = _parse_bool_triplet(comment["pbc"], lineno + 1)

    if start + 2 + natoms > len(lines):
        raise XYZParseError(
            f"line {len(lines) + 1}: expected {natoms} atom lines, file ended early"
        )
    numbers = np.zeros(natoms, dtype=np.int64)
    positions = np.zeros((natoms, 3))
    for k in range(natoms):
        text = lines[start + 2 + k]
        atom_lineno = lineno + 2 + k
        tokens = text.split()
        if len(tokens) < 4:
            raise XYZParseError(f"line {atom_lineno}: expected 'Symbol x y z', got {text.strip()!r}")
        try:
            numbers[k] = symbol_to_number(tokens[0])
        except Exception:
            raise XYZParseError(f"line {atom_lineno}: unknown element {tokens[0]!r}") from None
        try:
            positions[k] = [float(tokens[1]), float(tokens[2]), float(tokens[3])]
        except ValueError:
            raise XYZParseError(f"line {atom_lineno}: non-numeric coordinate") from None

    try:
        system = AtomicSystem(positions=positions, atomic_numbers=numbers, cell=cell, pbc=pbc)
    except FaframeError:
        raise
    except ValueError as error:  # a cell the pbc flags cannot use
        raise XYZParseError(f"line {lineno + 1}: {error}") from None
    return system, comment, start + 2 + natoms


def read_xyz_blocks(path) -> list[tuple[AtomicSystem, dict[str, str]]]:
    """Read every block in an extended-XYZ file."""
    text = Path(path).read_text()
    lines = text.splitlines()
    blocks = []
    cursor = 0
    while cursor < len(lines):
        if not lines[cursor].strip():
            cursor += 1
            continue
        system, comment, cursor = _read_block(lines, cursor)
        blocks.append((system, comment))
    if not blocks:
        raise XYZParseError("line 1: file holds no atoms")
    return blocks


def read_xyz(path) -> AtomicSystem:
    """Read the first block of an extended-XYZ file."""
    return read_xyz_blocks(path)[0][0]


def format_xyz(system: AtomicSystem, extra: dict[str, str] | None = None) -> str:
    """Render one system as an extended-XYZ block."""
    out = io.StringIO()
    out.write(f"{system.num_atoms}\n")
    fields = []
    if system.cell is not None:
        flat = " ".join(_COORD_FORMAT.format(v) for v in system.cell.ravel())
        fields.append(f'Lattice="{flat}"')
        flags = " ".join("T" if flag else "F" for flag in system.pbc)
        fields.append(f'pbc="{flags}"')
    for key, value in (extra or {}).items():
        value = str(value)
        if any(ch.isspace() for ch in value):
            fields.append(f'{key}="{value}"')
        else:
            fields.append(f"{key}={value}")
    out.write(" ".join(fields) + "\n")
    # One format call per atom line, on Python floats: the same text as
    # formatting each numpy value on its own, with a call per line, not per value.
    line = " ".join(["{}", _COORD_FORMAT, _COORD_FORMAT, _COORD_FORMAT]) + "\n"
    out.writelines(line.format(number_to_symbol(z), *row)
                   for z, row in zip(system.atomic_numbers.tolist(), system.positions.tolist()))
    return out.getvalue()


def write_xyz(path, system: AtomicSystem, extra: dict[str, str] | None = None, append=False):
    """Write one system to a file; ``append=True`` adds a block to the end."""
    mode = "a" if append else "w"
    with open(path, mode) as handle:
        handle.write(format_xyz(system, extra))
