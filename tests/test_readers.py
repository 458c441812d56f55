"""Every stream field is read through the one checked reader of its kind.

Fixed fields and byte runs go through `bitstream.read_fields`, runs of
bits through `bits.read_bits`; each raises a corrupt-stream error on a
read past the end. This walks each package module's syntax tree: a call
of `struct`'s unpackers outside bitstream.py, or of `np.unpackbits`
outside bits.py, would read stream bytes past those checks.

Each reader raises its own corrupt-stream error where it finds the
fault, so no handler outside the CLI may catch every ValueError or
Exception: one that did would relabel a decoder bug as a corrupt stream.
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


# classes whose handler would catch the errors of every reader and solver
CATCH_ALL = {"ValueError", "Exception", "BaseException"}


def catch_alls(source: str):
    """Lines of each `except` that is bare or names a CATCH_ALL class, by
    name or by attribute, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            named = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None) for n in named}
            if node.type is None or names & CATCH_ALL:
                found.append(node.lineno)
    return sorted(found)


def test_finds_catch_all_handlers():
    source = (
        "try:\n    f()\nexcept ValueError as e:\n    pass\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, builtins.Exception):\n    pass\n"
        "try:\n    f()\nexcept BaseException:\n    raise\n"
        "try:\n    f()\nexcept (IndexError, Truncated):\n    pass\n"
        "try:\n    f()\nexcept bitstream.BitstreamError:\n    pass\n"
    )
    assert catch_alls(source) == [3, 7, 11, 15]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_no_catch_all_handler_outside_the_cli(path):
    assert catch_alls(path.read_text()) == []
