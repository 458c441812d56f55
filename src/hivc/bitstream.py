"""Container framing for compressed video streams.

Layout:

    header (22 bytes, little endian)
        magic      4s   b"HIVC"
        version    u8   currently 3
        width      u16
        height     u16
        frame_count u32
        fps_num    u16
        fps_den    u16
        gop_size   u8
        channels   u8   1 (gray) or 3 (color)
        intra_levels - 1     u8
        flow_levels - 1      u8
        residual_levels      u8   odd, >= 3
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
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

MAGIC = b"HIVC"
VERSION = 3
# largest frame a stream may declare: the 4K UHD frame, which covers the
# FullHD target with margin; checked before any plane is allocated
MAX_PIXELS = 3840 * 2160
_HEADER_FMT = "<4sBHHIHHBBBBB"
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
        if not (1 <= self.width <= 65535 and 1 <= self.height <= 65535):
            raise BitstreamError("bad frame dimensions")
        if self.width * self.height > MAX_PIXELS:
            raise BitstreamError(
                f"{self.width}x{self.height} frames exceed the {MAX_PIXELS}-pixel limit"
            )
        if self.frame_count < 1:
            raise BitstreamError("a stream holds at least one frame")
        if self.channels not in (1, 3):
            raise BitstreamError("channels must be 1 or 3")
        if self.gop_size < 1 or self.gop_size > 255:
            raise BitstreamError("gop_size out of range")
        if not (2 <= self.intra_levels <= 256 and 2 <= self.flow_levels <= 256):
            raise BitstreamError("quantizer levels out of range")
        if self.residual_levels < 3 or self.residual_levels % 2 == 0:
            raise BitstreamError("residual_levels must be odd and >= 3")
        if self.fps_num < 1 or self.fps_den < 1:
            raise BitstreamError("bad frame rate")

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
            self.width,
            self.height,
            self.frame_count,
            self.fps_num,
            self.fps_den,
            self.gop_size,
            self.channels,
            self.intra_levels - 1,
            self.flow_levels - 1,
            self.residual_levels,
        )


def unpack_header(data: bytes) -> StreamHeader:
    if len(data) < HEADER_SIZE:
        raise Truncated("stream shorter than header")
    fields = struct.unpack_from(_HEADER_FMT, data, 0)
    if fields[0] != MAGIC:
        raise BadMagic("not a compressed video stream")
    if fields[1] != VERSION:
        raise UnsupportedVersion(f"stream version {fields[1]}, expected {VERSION}")
    return StreamHeader(
        width=fields[2],
        height=fields[3],
        frame_count=fields[4],
        fps_num=fields[5],
        fps_den=fields[6],
        gop_size=fields[7],
        channels=fields[8],
        intra_levels=fields[9] + 1,
        flow_levels=fields[10] + 1,
        residual_levels=fields[11],
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
        if pos + 8 > len(data):
            raise Truncated("group length prefix cut short")
        length, crc = struct.unpack_from("<II", data, pos)
        pos += 8
        if pos + length > len(data):
            raise Truncated(
                f"group payload {len(payloads)} cut short "
                f"({len(data) - pos} of {length} bytes present)"
            )
        payload = data[pos : pos + length]
        if zlib.crc32(payload) != crc:
            raise ChecksumMismatch(f"group payload {len(payloads)} fails its CRC32")
        payloads.append(payload)
        pos += length
    expected = -(-header.frame_count // header.gop_size)
    if len(payloads) != expected:
        raise LengthMismatch(
            f"stream holds {len(payloads)} groups, header implies {expected}"
        )
    return header, payloads
