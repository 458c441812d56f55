"""Container framing for compressed video streams.

Layout:

    header (22 bytes, little endian)
        magic      4s   b"HIVC"
        version    u8   currently 4
        fields     each StreamHeader field, in the order, code and
                   offset _FIELDS gives
    then one record per group of pictures:
        payload_len    u32
        payload_crc32  u32   zlib.crc32 of the payload
        payload        bytes

Each group payload starts with a u16 frame count followed by frame
records; see codec.py for the frame record layout. Every checksum is
checked before any frame is decoded. Version 2 added the checksums and
dropped every field a decoder can compute (see entropy.py). Version 3
keeps that layout and solves the intra planes in float32 to a looser
tolerance (see homogeneous.py and prediction.py), so its frames differ.
Version 4 drops the u32 bit count before every tree section and FSE
run (see bits.py) and decodes to version 3's frames.

Each fault in the bytes raises a BitstreamError from the reader that
finds it: BadMagic, UnsupportedVersion, Truncated, LengthMismatch,
ChecksumMismatch, or CodecError for a value that no encoder writes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

MAGIC = b"HIVC"
VERSION = 4
# largest frame a stream may declare: the 4K UHD frame, which covers the
# FullHD target with margin; checked before any plane is allocated
MAX_PIXELS = 3840 * 2160
# the header after magic and version, in stream order: (StreamHeader
# field, struct code, offset); the stream holds the field minus its
# offset, which must fit the code
_FIELDS = (
    ("width", "H", 0),
    ("height", "H", 0),
    ("frame_count", "I", 0),
    ("fps_num", "H", 0),
    ("fps_den", "H", 0),
    ("gop_size", "B", 0),
    ("channels", "B", 0),  # 1 (gray) or 3 (color)
    ("intra_levels", "B", 1),
    ("flow_levels", "B", 1),
    ("residual_levels", "B", 0),  # odd, >= 3
)
_HEADER_FMT = "<4sB" + "".join(code for _, code, _ in _FIELDS)
HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class BitstreamError(Exception):
    """Base class for malformed or unreadable streams."""


class BadMagic(BitstreamError):
    pass


class UnsupportedVersion(BitstreamError):
    pass


class Truncated(BitstreamError):
    pass


class LengthMismatch(BitstreamError):
    pass


class ChecksumMismatch(BitstreamError):
    pass


class CodecError(BitstreamError):
    """A field or payload holds a value that no encoder writes."""


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    frame_count: int
    fps_num: int
    fps_den: int
    gop_size: int
    channels: int
    intra_levels: int
    flow_levels: int
    residual_levels: int

    def __post_init__(self):
        for name, code, offset in _FIELDS:
            if not 0 <= getattr(self, name) - offset < 256 ** struct.calcsize("<" + code):
                raise BitstreamError(f"{name} out of range")
        if self.width < 1 or self.height < 1:
            raise BitstreamError(f"{self.width}x{self.height} frames hold no pixels")
        if self.width * self.height > MAX_PIXELS:
            raise BitstreamError(
                f"{self.width}x{self.height} frames exceed the {MAX_PIXELS}-pixel limit"
            )
        if self.frame_count < 1:
            raise BitstreamError("a stream holds at least one frame")
        if self.channels not in (1, 3):
            raise BitstreamError("channels must be 1 or 3")
        if self.gop_size < 1:
            raise BitstreamError("gop_size out of range")
        if self.intra_levels < 2 or self.flow_levels < 2:
            raise BitstreamError("quantizer levels out of range")
        if self.residual_levels < 3 or self.residual_levels % 2 == 0:
            raise BitstreamError("residual_levels must be odd and >= 3")
        if self.fps_num < 1 or self.fps_den < 1:
            raise BitstreamError("bad frame rate")

    def pack(self) -> bytes:
        stored = (getattr(self, name) - offset for name, _, offset in _FIELDS)
        return struct.pack(_HEADER_FMT, MAGIC, VERSION, *stored)


def read_fields(fmt: str, data: bytes, pos: int, what: str):
    """(fields of the `struct` format `fmt` at `pos`, next position).

    The one reader of fixed fields and byte runs (format "<{n}s"): a
    read past the end of `data` raises Truncated, naming `what`.
    """
    end = pos + struct.calcsize(fmt)
    if end > len(data):
        raise Truncated(f"{what} cut short ({len(data) - pos} of {end - pos} bytes present)")
    return struct.unpack_from(fmt, data, pos), end


def unpack_header(data: bytes) -> StreamHeader:
    (magic, version, *stored), _ = read_fields(_HEADER_FMT, data, 0, "stream header")
    if magic != MAGIC:
        raise BadMagic("not a compressed video stream")
    if version != VERSION:
        raise UnsupportedVersion(f"stream version {version}, expected {VERSION}")
    return StreamHeader(
        **{name: value + offset for (name, _, offset), value in zip(_FIELDS, stored)}
    )


def write_stream(header: StreamHeader, gop_payloads) -> bytes:
    out = bytearray(header.pack())
    for payload in gop_payloads:
        out += struct.pack("<II", len(payload), zlib.crc32(payload))
        out += payload
    return bytes(out)


def read_stream(data: bytes):
    """Split a stream into (header, list of group payloads), each checked
    against its CRC32."""
    header = unpack_header(data)
    pos = HEADER_SIZE
    payloads = []
    while pos < len(data):
        gi = len(payloads)
        (length, crc), pos = read_fields("<II", data, pos, f"group {gi} length prefix")
        (payload,), pos = read_fields(f"<{length}s", data, pos, f"group payload {gi}")
        if zlib.crc32(payload) != crc:
            raise ChecksumMismatch(f"group payload {gi} fails its CRC32")
        payloads.append(payload)
    expected = -(-header.frame_count // header.gop_size)
    if len(payloads) != expected:
        raise LengthMismatch(
            f"stream holds {len(payloads)} groups, header implies {expected}"
        )
    return header, payloads
