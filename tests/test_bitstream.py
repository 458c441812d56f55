import pytest

from hivc import bitstream
from hivc.bitstream import (
    HEADER_SIZE,
    BadMagic,
    BitstreamError,
    LengthMismatch,
    StreamHeader,
    Truncated,
    UnsupportedVersion,
    read_fields,
    read_stream,
    unpack_header,
    write_stream,
)


def _header(**kw):
    base = dict(
        width=64,
        height=48,
        frame_count=8,
        fps_num=25,
        fps_den=1,
        gop_size=4,
        channels=3,
        intra_levels=256,
        flow_levels=256,
        residual_levels=63,
    )
    base.update(kw)
    return StreamHeader(**base)


# the smallest and largest value each header field may take
FIELD_LIMITS = {
    "width": (1, 65535),
    "height": (1, 65535),
    "frame_count": (1, 2**32 - 1),
    "fps_num": (1, 65535),
    "fps_den": (1, 65535),
    "gop_size": (1, 255),
    "channels": (1, 3),
    "intra_levels": (2, 256),
    "flow_levels": (2, 256),
    "residual_levels": (3, 255),
}


def test_header_pack_round_trip():
    h = _header()
    assert unpack_header(h.pack()) == h
    assert len(h.pack()) == HEADER_SIZE


@pytest.mark.parametrize("field", sorted(FIELD_LIMITS))
def test_header_round_trips_each_field_at_its_limits(field):
    low, high = FIELD_LIMITS[field]
    # the other side of the frame stays within the pixel limit
    other = {"width": "height", "height": "width"}.get(field)
    for value in (low, high):
        kw = {field: value}
        if other:
            kw[other] = 1
        h = _header(**kw)
        assert unpack_header(h.pack()) == h
        assert len(h.pack()) == HEADER_SIZE
    for value in (low - 1, high + 1):
        with pytest.raises(BitstreamError):
            _header(**{field: value})


def test_header_validation():
    with pytest.raises(BitstreamError):
        _header(width=0)
    with pytest.raises(BitstreamError):
        _header(channels=2)
    with pytest.raises(BitstreamError):
        _header(residual_levels=64)
    with pytest.raises(BitstreamError):
        _header(gop_size=0)


def test_header_pixel_limit_covers_4k_and_no_more():
    assert bitstream.MAX_PIXELS == 3840 * 2160
    _header(width=3840, height=2160)
    for width, height in ((3840, 2161), (65535, 65535)):
        with pytest.raises(BitstreamError, match="pixel limit"):
            _header(width=width, height=height)


def test_unpack_rejects_header_over_pixel_limit(monkeypatch):
    data = _header(height=49).pack()
    monkeypatch.setattr(bitstream, "MAX_PIXELS", 64 * 48)
    assert unpack_header(_header().pack()) == _header()  # at the limit
    with pytest.raises(BitstreamError, match="pixel limit"):
        unpack_header(data)


def test_header_declaring_zero_frames_is_corrupt():
    # a header that declares 0 frames is corrupt; no encoder writes one
    with pytest.raises(BitstreamError, match="at least one frame"):
        _header(frame_count=0)
    data = bytearray(_header(frame_count=1).pack())
    data[9:13] = bytes(4)  # frame_count, u32 after magic, version and geometry
    assert len(data) == HEADER_SIZE
    with pytest.raises(BitstreamError, match="at least one frame"):
        unpack_header(bytes(data))
    with pytest.raises(BitstreamError, match="at least one frame"):
        read_stream(bytes(data))


def test_one_gop_byte_round_trip():
    h = _header(frame_count=3, gop_size=4)
    payload = b"\x01\x02\x03\x04\x05"
    data = write_stream(h, [payload])
    assert write_stream(*read_stream(data)) == data
    _, gops = read_stream(data)
    assert gops == [payload]


def test_bad_magic_is_distinct_error():
    data = bytearray(write_stream(_header(frame_count=1), []))
    data[0] = ord("X")
    with pytest.raises(BadMagic):
        read_stream(bytes(data))


def test_unsupported_version_is_distinct_error():
    data = bytearray(write_stream(_header(frame_count=1), []))
    data[4] = 99
    with pytest.raises(UnsupportedVersion):
        read_stream(bytes(data))


def test_truncation_is_distinct_error():
    h = _header(frame_count=3, gop_size=4)
    data = write_stream(h, [b"abcdef"])
    with pytest.raises(Truncated):
        read_stream(data[:-1])
    with pytest.raises(Truncated):
        read_stream(data[: HEADER_SIZE - 2])


def test_read_fields_returns_the_fields_and_the_next_position():
    data = bytes([1, 2, 0, 3, 0, 0, 0]) + b"abc"
    assert read_fields("<BHI", data, 0, "fields") == ((1, 2, 3), 7)
    assert read_fields("<3s", data, 7, "run") == ((b"abc",), 10)
    with pytest.raises(Truncated, match=r"^run cut short \(3 of 4 bytes present\)$"):
        read_fields("<4s", data, 7, "run")
    with pytest.raises(Truncated, match="stream header cut short"):
        unpack_header(data)


def test_gop_count_mismatch_is_distinct_error():
    h = _header(frame_count=8, gop_size=4)  # expects 2 groups
    data = write_stream(h, [b"abc"])
    with pytest.raises(LengthMismatch):
        read_stream(data)


def test_gops_skippable_without_parsing():
    h = _header(frame_count=8, gop_size=4)
    a, b = b"A" * 17, b"B" * 5
    _, gops = read_stream(write_stream(h, [a, b]))
    assert gops == [a, b]
