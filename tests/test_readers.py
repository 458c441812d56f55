"""Every stream field is read through the one checked reader of its kind.

Fixed fields and byte runs go through `bitstream.read_fields`, runs of
bits through `bits.read_bits`; each raises a corrupt-stream error on a
read past the end. This walks each package module's syntax tree: a call
of `struct`'s unpackers outside bitstream.py, or of `np.unpackbits`
outside bits.py, would read stream bytes past those checks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hivc").glob("*.py"))
# raw reader -> the one module that may call it
READERS = {
    "unpack": "bitstream.py",
    "unpack_from": "bitstream.py",
    "iter_unpack": "bitstream.py",
    "unpackbits": "bits.py",
}


def raw_reads(source: str):
    """(line, name) of each call of a raw reader, by attribute or by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in READERS:
                found.append((node.lineno, name))
    return sorted(found)


def test_finds_raw_reads_by_attribute_and_by_name():
    source = (
        "import struct\nimport numpy as np\nfrom struct import unpack_from\n"
        "struct.unpack_from('<I', b'', 0)\nnp.unpackbits(x)\nunpack_from('<H', b'', 0)\n"
        "struct.pack('<I', 1)\nunpack_bits(x, w)\n"
    )
    assert raw_reads(source) == [(4, "unpack_from"), (5, "unpackbits"), (6, "unpack_from")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stream_bytes_are_read_only_through_the_checked_readers(path):
    stray = [(line, name) for line, name in raw_reads(path.read_text()) if READERS[name] != path.name]
    assert stray == []
