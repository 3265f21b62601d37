"""Bit-exact LCMR/LCMC/LCMS format tests: layout, roundtrips, rejection."""

import hashlib
import io
import struct

import numpy as np
import pytest

from eegssl import data
from eegssl.cli import run_cli
from eegssl.data import (Checkpoint, Montage, Recording, default_montage,
                         load_checkpoint, load_segments, read_recording,
                         save_checkpoint, save_segments, SegmentBatch,
                         write_recording)
from eegssl.errors import FormatError, ValidationError

HEADER_LEN = 34  # 4s + u16 + u32 + f64 + u64 + f64


def small_recording(m=2, t=5, rate=256.0, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((m, t)).astype(np.float32)
    return Recording(default_montage(m), rate, scale, samples)


def test_zero_recording_byte_count():
    rec = Recording(default_montage(1), 256.0, 1.0, np.zeros((1, 4), np.float32))
    sink = io.BytesIO()
    n = write_recording(rec, sink)
    payload = sink.getvalue()[HEADER_LEN:]
    assert n == HEADER_LEN + 16
    assert payload == b"\x00" * 16


def test_payload_is_little_endian_f32():
    rec = Recording(default_montage(1), 128.0, 1.0,
                    np.array([[1.0, -1.0]], np.float32))
    sink = io.BytesIO()
    write_recording(rec, sink)
    payload = sink.getvalue()[HEADER_LEN:]
    # independent float encoding via struct
    assert payload == struct.pack("<f", 1.0) + struct.pack("<f", -1.0)


def test_header_layout():
    rec = small_recording(m=3, t=7, rate=512.0, scale=0.25)
    sink = io.BytesIO()
    write_recording(rec, sink)
    raw = sink.getvalue()
    magic, version, m, rate, t, scale = struct.unpack("<4sHIdQd", raw[:HEADER_LEN])
    assert magic == b"LCMR" and version == 1
    assert (m, t) == (3, 7) and rate == 512.0 and scale == 0.25


def test_stream_roundtrip_bitwise():
    rec = small_recording(m=4, t=100, rate=250.0, scale=1e-3)
    sink = io.BytesIO()
    write_recording(rec, sink)
    sink.seek(0)
    back = read_recording(sink)
    assert back == rec


def test_path_roundtrip_with_sidecar(tmp_path):
    montage = Montage("cap8", ("Fz", "Cz", "Pz"))
    rec = Recording(montage, 500.0, 2.0,
                    np.random.default_rng(1).standard_normal((3, 9)).astype(np.float32))
    path = tmp_path / "rec.lcmr"
    write_recording(rec, path)
    assert (tmp_path / "rec.lcmr.meta").exists()
    back = read_recording(path)
    assert back == rec
    assert back.montage.montage_id == "cap8"
    assert back.montage.channel_names == ("Fz", "Cz", "Pz")


def test_bad_magic_rejected():
    blob = b"XXXX" + b"\x00" * 40
    with pytest.raises(FormatError) as err:
        read_recording(io.BytesIO(blob))
    assert err.value.kind == "magic"


def test_bad_version_rejected():
    rec = small_recording()
    sink = io.BytesIO()
    write_recording(rec, sink)
    raw = bytearray(sink.getvalue())
    raw[4:6] = struct.pack("<H", 9)
    with pytest.raises(FormatError) as err:
        read_recording(io.BytesIO(bytes(raw)))
    assert err.value.kind == "version"


def test_truncated_payload_rejected():
    rec = small_recording(m=2, t=8)
    sink = io.BytesIO()
    write_recording(rec, sink)
    raw = sink.getvalue()[:-5]
    with pytest.raises(FormatError) as err:
        read_recording(io.BytesIO(raw))
    assert err.value.kind == "truncated"


def test_error_kinds_distinct():
    kinds = set()
    for blob in (b"XXXX" + b"\x00" * 40,):
        try:
            read_recording(io.BytesIO(blob))
        except FormatError as e:
            kinds.add(e.kind)
    rec = small_recording()
    sink = io.BytesIO()
    write_recording(rec, sink)
    try:
        read_recording(io.BytesIO(sink.getvalue()[:-1]))
    except FormatError as e:
        kinds.add(e.kind)
    assert kinds == {"magic", "truncated"}


def test_nonfinite_payload_rejected():
    rec = small_recording(m=1, t=3)
    sink = io.BytesIO()
    write_recording(rec, sink)
    raw = bytearray(sink.getvalue())
    raw[HEADER_LEN:HEADER_LEN + 4] = struct.pack("<f", np.nan)
    with pytest.raises(ValidationError):
        read_recording(io.BytesIO(bytes(raw)))


def test_recording_invariants():
    with pytest.raises(ValidationError):
        Recording(default_montage(2), 256.0, 1.0, np.zeros((3, 4), np.float32))
    with pytest.raises(ValidationError):
        Recording(default_montage(1), -1.0, 1.0, np.zeros((1, 4), np.float32))
    with pytest.raises(ValidationError):
        Recording(default_montage(1), 256.0, 1.0,
                  np.array([[np.inf, 0, 0, 0]], np.float32))
    with pytest.raises(ValidationError):
        Montage("m", ("a", "a"))


# --- checkpoints -------------------------------------------------------------

GROUPS = ("theta", "xi", "m", "v")


def checkpoint_fixture(seed=0):
    rng = np.random.default_rng(seed)
    groups = {group: {} for group in GROUPS}
    for name, shape in (("w", (3, 4)), ("b", (4,)), ("scalar", ())):
        value = rng.standard_normal(shape).astype(np.float32)
        groups["theta"][name] = value
        groups["xi"][name] = value + 1.0
        groups["m"][name] = np.zeros(shape, np.float32)
        groups["v"][name] = np.zeros(shape, np.float32)
    return Checkpoint(step=42, **groups)


def one_tensor_checkpoint(step, value):
    """Every group holds one tensor "w" equal to `value`."""
    return Checkpoint(step, *({"w": value.copy()} for _ in GROUPS))


def test_checkpoint_roundtrip_bitwise():
    ckpt = checkpoint_fixture()
    sink = io.BytesIO()
    save_checkpoint(ckpt, sink)
    sink.seek(0)
    back = load_checkpoint(sink)
    assert back.step == 42
    for group in GROUPS:
        assert set(getattr(back, group)) == set(getattr(ckpt, group))
        for name, value in getattr(ckpt, group).items():
            assert getattr(back, group)[name].tobytes() == value.tobytes()
            assert getattr(back, group)[name].shape == value.shape


def test_checkpoint_bytes_pinned():
    # the LCMC bytes of the fixture; any change to the tensor table shows here
    sink = io.BytesIO()
    assert save_checkpoint(checkpoint_fixture(), sink) == 465
    assert hashlib.sha256(sink.getvalue()).hexdigest() == (
        "9fa391e335d5309e6b53f2e7a23d136ee58270f86a4c4d0c0f2d48ff92a5286e")


def test_checkpoint_tensor_table_sorted_by_name():
    ckpt = checkpoint_fixture()
    sink = io.BytesIO()
    save_checkpoint(ckpt, sink)
    raw = sink.getvalue()
    offset = 14  # magic + u16 version + u64 step
    seen = []
    while offset < len(raw):
        (nlen,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        seen.append(raw[offset:offset + nlen].decode())
        offset += nlen
        (rank,) = struct.unpack_from("<B", raw, offset)
        offset += 1
        count = 1
        for _ in range(rank):
            (dim,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            count *= dim
        offset += 4 * count
    assert seen == sorted(seen)


def test_checkpoint_bad_magic_and_truncation():
    with pytest.raises(FormatError) as err:
        load_checkpoint(io.BytesIO(b"NOPE" + b"\x00" * 16))
    assert err.value.kind == "magic"
    ckpt = checkpoint_fixture()
    sink = io.BytesIO()
    save_checkpoint(ckpt, sink)
    with pytest.raises(FormatError) as err:
        load_checkpoint(io.BytesIO(sink.getvalue()[:-3]))
    assert err.value.kind == "truncated"


def test_checkpoint_save_failing_midway_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.lcmc"
    old = one_tensor_checkpoint(1, np.ones(3, np.float32))
    save_checkpoint(old, path)
    old_bytes = path.read_bytes()

    real_write = data._CountingWriter.write

    def failing_write(self, b):
        if self.count > 20:
            raise OSError("no space left on device")
        real_write(self, b)

    monkeypatch.setattr(data._CountingWriter, "write", failing_write)
    new = one_tensor_checkpoint(2, np.zeros(3, np.float32))
    with pytest.raises(OSError):
        save_checkpoint(new, path)
    assert path.read_bytes() == old_bytes
    assert [p.name for p in tmp_path.iterdir()] == ["model.lcmc"]


def test_checkpoint_theta_xi_shape_invariant():
    w = {"w": np.zeros((2, 2), np.float32)}
    with pytest.raises(ValidationError):
        Checkpoint(0, theta=w, xi={}, m=w, v=w)
    with pytest.raises(ValidationError):
        Checkpoint(0, theta=w, xi={"w": np.zeros((2, 3), np.float32)}, m=w, v=w)
    with pytest.raises(ValidationError, match="group 'm'"):
        Checkpoint(0, theta=w, xi=w, m={}, v=w)
    with pytest.raises(ValidationError, match="group 'v'"):
        Checkpoint(0, theta=w, xi=w, m=w, v={"w": w["w"], "extra": w["w"]})


# --- segment archive ----------------------------------------------------------

def test_segments_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    batch = SegmentBatch(rng.standard_normal((5, 2, 16)).astype(np.float32),
                         sample_rate_hz=256.0,
                         labels=np.array([0, 1, 0, 1, 0]))
    path = tmp_path / "seg.lcms"
    save_segments(batch, path)
    back = load_segments(path)
    assert back.segments.tobytes() == batch.segments.tobytes()
    assert back.sample_rate_hz == 256.0
    np.testing.assert_array_equal(back.labels, batch.labels)


def test_segments_unlabeled_roundtrip():
    batch = SegmentBatch(np.zeros((2, 1, 8), np.float32), sample_rate_hz=100.0)
    sink = io.BytesIO()
    save_segments(batch, sink)
    sink.seek(0)
    back = load_segments(sink)
    assert back.labels is None and len(back) == 2


# --- declared sizes ---------------------------------------------------------------

def lcmc_scalars(*names):
    """LCMC bytes at step 0 with one 1-element tensor per name, in the given order."""
    return b"LCMC" + struct.pack("<HQ", 1, 0) + b"".join(
        struct.pack("<H", len(n)) + n + struct.pack("<BIf", 1, 1, 1.0) for n in names)


CRAFTED = {
    # name: (file bytes, expected FormatError kind)
    # one tensor of 65536^4 = 2^64 elements, which wraps to 0 in int64
    "lcmc-wraps": (b"LCMC" + struct.pack("<HQH", 1, 0, 1) + b"w"
                   + struct.pack("<B4I", 4, *[1 << 16] * 4), "truncated"),
    "lcmc-2^18x2^18": (b"LCMC" + struct.pack("<HQH", 1, 0, 12) + b"theta/weight"
                       + struct.pack("<B2I", 2, 1 << 18, 1 << 18), "truncated"),
    "lcmc-name-not-utf8": (b"LCMC" + struct.pack("<HQH", 1, 0, 2) + b"\xff\xfe"
                           + struct.pack("<Bf", 0, 1.0), "header"),
    "lcmc-theta-without-xi": (b"LCMC" + struct.pack("<HQH", 1, 0, 7) + b"theta/w"
                              + struct.pack("<BIf", 1, 1, 1.0), "header"),
    # all four groups plus a name in none of them
    "lcmc-name-outside-groups": (lcmc_scalars(b"opt/m/w", b"opt/v/w", b"opt/x/w",
                                              b"theta/w", b"xi/w"), "header"),
    # theta and xi match, but the AdamW moments are absent
    "lcmc-moments-missing": (lcmc_scalars(b"theta/w", b"xi/w"), "header"),
    "lcms-labels": (struct.pack("<4sHIIIdB", b"LCMS", 1, 2 ** 32 - 1, 1, 1,
                                256.0, 1), "truncated"),
    "lcms-has-labels-7": (struct.pack("<4sHIIIdB", b"LCMS", 1, 1, 1, 1, 256.0, 7)
                          + struct.pack("<Hf", 0, 1.0), "header"),
    "lcms-payload": (struct.pack("<4sHIIIdB", b"LCMS", 1, 2 ** 32 - 1,
                                 2 ** 32 - 1, 2 ** 32 - 1, 256.0, 0), "truncated"),
    "lcmr-payload": (struct.pack("<4sHIdQd", b"LCMR", 1, 2 ** 32 - 1, 256.0,
                                 2 ** 64 - 1, 1.0), "truncated"),
    # header values that the Recording / SegmentBatch invariants reject
    "lcmr-rate-0": (struct.pack("<4sHIdQdf", b"LCMR", 1, 1, 0.0, 1, 1.0, 1.0),
                    "header"),
    "lcmr-rate-nan": (struct.pack("<4sHIdQdf", b"LCMR", 1, 1, float("nan"), 1, 1.0,
                                  1.0), "header"),
    "lcmr-scale-0": (struct.pack("<4sHIdQdf", b"LCMR", 1, 1, 256.0, 1, 0.0, 1.0),
                     "header"),
    "lcmr-scale-negative": (struct.pack("<4sHIdQdf", b"LCMR", 1, 1, 256.0, 1, -1.0,
                                        1.0), "header"),
    "lcms-rate-0": (struct.pack("<4sHIIIdBf", b"LCMS", 1, 1, 1, 1, 0.0, 0, 1.0),
                    "header"),
}
LOADERS = {b"LCMC": load_checkpoint, b"LCMS": load_segments,
           b"LCMR": read_recording}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_declared_sizes_not_trusted(name, tmp_path, capsys):
    raw, kind = CRAFTED[name]
    with pytest.raises(FormatError) as err:
        LOADERS[raw[:4]](io.BytesIO(raw))
    assert err.value.kind == kind
    path = tmp_path / "crafted.bin"
    path.write_bytes(raw)
    assert run_cli(["inspect", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "Traceback" not in stderr


@pytest.mark.parametrize("channels", ["a,a", ""], ids=["duplicate", "empty"])
def test_malformed_sidecar_rejected(channels, tmp_path, capsys):
    path = tmp_path / "rec.lcmr"
    write_recording(small_recording(), path)
    (tmp_path / "rec.lcmr.meta").write_text(f"montage_id=cap\nchannels={channels}\n")
    with pytest.raises(FormatError) as err:
        read_recording(path)
    assert err.value.kind == "sidecar"
    assert run_cli(["inspect", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "Traceback" not in stderr
