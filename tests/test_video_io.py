import pytest

from conftest import moving_clip
from hivc.frame import Frame
from hivc.video_io import (
    VideoIOError,
    read_frames,
    read_pnm,
    read_y4m,
    write_pnm,
    write_y4m,
)


def test_ppm_round_trip(tmp_path):
    f = moving_clip(1, 20, 30, seed=1)[0]
    path = tmp_path / "frame.ppm"
    write_pnm(path, f)
    assert read_pnm(path) == f


def test_pgm_round_trip(tmp_path):
    f = moving_clip(1, 20, 30, seed=2)[0]
    gray = Frame((f.planes[0],), colorspace="gray")
    path = tmp_path / "frame.pgm"
    write_pnm(path, gray)
    assert read_pnm(path) == gray


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04")
    f = read_pnm(path)
    assert f.planes[0].tolist() == [[1, 2], [3, 4]]


def test_pnm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"JUNK")
    with pytest.raises(VideoIOError):
        read_pnm(path)


def test_pnm_rejects_truncated_pixels(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(VideoIOError):
        read_pnm(path)


def test_y4m_round_trip_color(tmp_path):
    clip = moving_clip(3, 24, 32, seed=3)
    path = tmp_path / "clip.y4m"
    write_y4m(path, clip, fps=(30, 1))
    frames, fps = read_y4m(path)
    assert fps == (30, 1)
    assert len(frames) == 3
    assert all(a == b for a, b in zip(frames, clip))


def test_y4m_round_trip_gray(tmp_path):
    clip = [Frame((f.planes[0],), colorspace="gray") for f in moving_clip(2, 16, 16, seed=4)]
    path = tmp_path / "gray.y4m"
    write_y4m(path, clip)
    frames, _ = read_y4m(path)
    assert all(a == b for a, b in zip(frames, clip))


def test_y4m_writes_any_iterable_and_counts_its_frames(tmp_path):
    clip = moving_clip(3, 16, 24, seed=5)
    path = tmp_path / "gen.y4m"
    assert write_y4m(path, (f for f in clip)) == 3
    frames, _ = read_y4m(path)
    assert all(a == b for a, b in zip(frames, clip, strict=True))
    with pytest.raises(VideoIOError, match="no frames"):
        write_y4m(tmp_path / "empty.y4m", (f for f in ()))
    assert not (tmp_path / "empty.y4m").exists()
    smaller = moving_clip(1, 8, 24, seed=6)[0]
    with pytest.raises(VideoIOError, match="geometry"):
        write_y4m(tmp_path / "mixed.y4m", iter([*clip[:2], smaller]))


def test_y4m_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.y4m"
    path.write_bytes(b"NOTY4M stuff\n")
    with pytest.raises(VideoIOError):
        read_y4m(path)


def y4m_with_field(path, field):
    """Write a one-frame 4x2 gray Y4M file whose header has `field` in
    place of its W, H or F token."""
    params = {b"W": b"W4", b"H": b"H2", b"F": b"F25:1"}
    params[field[:1]] = field
    path.write_bytes(b"YUV4MPEG2 " + b" ".join(params.values()) + b" Cmono\nFRAME\n" + bytes(8))
    return path


@pytest.mark.parametrize(
    "field", [b"Wx", b"W-4", b"W0", b"W", b"H2.5", b"F25", b"F25:0", b"F0:1", b"F:1", b"F25:1:2"]
)
def test_y4m_rejects_a_malformed_header_field(tmp_path, field):
    with pytest.raises(VideoIOError, match=f"bad header field '{field.decode()}'"):
        read_y4m(y4m_with_field(tmp_path / "bad.y4m", field))


def test_y4m_rejects_a_chroma_mode_that_is_not_text(tmp_path):
    path = tmp_path / "bad.y4m"
    path.write_bytes(b"YUV4MPEG2 W4 H2 F25:1 C\xff\nFRAME\n" + bytes(8))
    with pytest.raises(VideoIOError, match="unsupported chroma mode"):
        read_y4m(path)


def test_read_frames_from_directory(tmp_path):
    clip = moving_clip(3, 12, 14, seed=5)
    for i, f in enumerate(clip):
        write_pnm(tmp_path / f"f{i:03d}.ppm", f)
    frames, fps = read_frames(str(tmp_path))
    assert len(frames) == 3
    assert all(a == b for a, b in zip(frames, clip))
    assert fps[0] >= 1


def test_read_frames_from_glob(tmp_path):
    clip = moving_clip(2, 12, 14, seed=6)
    for i, f in enumerate(clip):
        write_pnm(tmp_path / f"g{i}.ppm", f)
    frames, _ = read_frames(str(tmp_path / "g*.ppm"))
    assert len(frames) == 2


def test_read_frames_single_pnm(tmp_path):
    f = moving_clip(1, 10, 10, seed=7)[0]
    p = tmp_path / "one.ppm"
    write_pnm(p, f)
    frames, _ = read_frames(str(p))
    assert frames == [f]


def test_read_frames_missing_path(tmp_path):
    with pytest.raises((VideoIOError, OSError)):
        read_frames(str(tmp_path / "nope.y4m"))
