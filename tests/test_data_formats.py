"""Bit-exact LCMR/LCMC/LCMS format tests: layout, roundtrips, rejection."""

import ast
import errno
import hashlib
import io
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegssl import data
from eegssl.cli import run_cli
from eegssl.data import (Checkpoint, Montage, Recording, default_montage,
                         load_checkpoint, load_segments, read_recording,
                         save_checkpoint, save_segments, SegmentBatch,
                         write_recording)
from eegssl.errors import FormatError, ValidationError

HEADER_LEN = 34  # 4s + u16 + u32 + f64 + u64 + f64


def montage_bytes(montage):
    """The LCMR montage block: the id, then each name, as u16 length + UTF-8."""
    return b"".join(struct.pack("<H", len(text.encode())) + text.encode()
                    for text in (montage.montage_id, *montage.channel_names))


def small_recording(m=2, t=5, rate=256.0, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((m, t)).astype(np.float32)
    return Recording(default_montage(m), rate, scale, samples)


def test_zero_recording_byte_count():
    rec = Recording(default_montage(1), 256.0, 1.0, np.zeros((1, 4), np.float32))
    sink = io.BytesIO()
    n = write_recording(rec, sink)
    montage = montage_bytes(rec.montage)
    assert n == HEADER_LEN + len(montage) + 16
    assert sink.getvalue()[HEADER_LEN:] == montage + b"\x00" * 16


def test_payload_is_little_endian_f32():
    rec = Recording(default_montage(1), 128.0, 1.0,
                    np.array([[1.0, -1.0]], np.float32))
    sink = io.BytesIO()
    write_recording(rec, sink)
    payload = sink.getvalue()[HEADER_LEN + len(montage_bytes(rec.montage)):]
    # independent float encoding via struct
    assert payload == struct.pack("<f", 1.0) + struct.pack("<f", -1.0)


def test_header_layout():
    rec = Recording(Montage("cap", ("Fz", "Cz", "Pz")), 512.0, 0.25,
                    np.zeros((3, 7), np.float32))
    sink = io.BytesIO()
    write_recording(rec, sink)
    raw = sink.getvalue()
    magic, version, m, rate, t, scale = struct.unpack("<4sHIdQd", raw[:HEADER_LEN])
    assert magic == b"LCMR" and version == 2
    assert (m, t) == (3, 7) and rate == 512.0 and scale == 0.25
    # the montage id, then the names, each a u16 length and UTF-8 bytes
    assert raw[HEADER_LEN:-4 * 3 * 7] == (b"\x03\x00cap" + b"\x02\x00Fz"
                                         + b"\x02\x00Cz" + b"\x02\x00Pz")


def test_stream_roundtrip_bitwise():
    rec = small_recording(m=4, t=100, rate=250.0, scale=1e-3)
    sink = io.BytesIO()
    write_recording(rec, sink)
    sink.seek(0)
    back = read_recording(sink)
    assert back == rec


def test_stream_roundtrip_keeps_montage():
    rec = Recording(Montage("cap8", ("Fz", "Cz")), 256.0, 1.0,
                    np.ones((2, 3), np.float32))
    sink = io.BytesIO()
    write_recording(rec, sink)
    back = read_recording(io.BytesIO(sink.getvalue()))
    assert back.montage.montage_id == "cap8"
    assert back.montage.channel_names == ("Fz", "Cz")
    assert back == rec


def test_path_roundtrip_writes_one_file(tmp_path):
    montage = Montage("cap8", ("Fz", "Cz", "Pz"))
    rec = Recording(montage, 500.0, 2.0,
                    np.random.default_rng(1).standard_normal((3, 9)).astype(np.float32))
    path = tmp_path / "rec.lcmr"
    write_recording(rec, path)
    assert [p.name for p in tmp_path.iterdir()] == ["rec.lcmr"]  # no ".meta" is written
    back = read_recording(path)
    assert back == rec
    assert read_recording(io.BytesIO(path.read_bytes())) == back


@pytest.mark.parametrize("montage_id, names", [
    ("cap", ("a", "\ud800")), ("\udfff", ("a",)), ("cap", ("a", "b" * 65536)),
], ids=["lone-surrogate-name", "lone-surrogate-id", "name-of-65536-bytes"])
def test_unwritable_montage_rejected_before_any_byte_is_written(
        montage_id, names, tmp_path):
    path = tmp_path / "rec.lcmr"
    old = small_recording()
    write_recording(old, path)
    with pytest.raises(ValidationError):
        write_recording(Recording(Montage(montage_id, names), 256.0, 1.0,
                                  np.zeros((len(names), 3), np.float32)), path)
    assert [p.name for p in tmp_path.iterdir()] == ["rec.lcmr"]
    assert read_recording(path) == old


def test_longest_name_roundtrips():
    rec = Recording(Montage("é" * 32767, ("b" * 65535,)), 256.0, 1.0,
                    np.zeros((1, 2), np.float32))
    sink = io.BytesIO()
    write_recording(rec, sink)
    assert read_recording(io.BytesIO(sink.getvalue())) == rec


# plain letters, separators, whitespace and line boundaries, and a non-BMP character
MONTAGE_TEXT = st.text(st.sampled_from("ab ,=\n\r\t\x0b\x0c\x1c\x85\u2028\U0001F600")
                       | st.characters(), max_size=6)


def test_montage_builds_only_if_it_roundtrips_through_a_path(tmp_path):
    # every montage that builds round-trips through a path and a stream
    path = tmp_path / "rec.lcmr"

    @settings(max_examples=300, deadline=None)
    @given(montage_id=MONTAGE_TEXT, names=st.lists(MONTAGE_TEXT, min_size=1, max_size=4))
    def roundtrip(montage_id, names):
        try:
            montage = Montage(montage_id, tuple(names))
        except ValidationError:
            return
        rec = Recording(montage, 256.0, 1.0, np.zeros((len(names), 2), np.float32))
        write_recording(rec, path)
        assert read_recording(path) == rec
        assert read_recording(io.BytesIO(path.read_bytes())) == rec

    roundtrip()


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
    raw[-12:-8] = struct.pack("<f", np.nan)  # the first of the 3 payload samples
    with pytest.raises(ValidationError):
        read_recording(io.BytesIO(bytes(raw)))


def test_nonfinite_segment_payload_rejected(tmp_path, capsys):
    batch = SegmentBatch(np.zeros((2, 1, 3), np.float32), sample_rate_hz=128.0)
    sink = io.BytesIO()
    save_segments(batch, sink)
    for bad in (np.nan, np.inf, -np.inf):
        raw = bytearray(sink.getvalue())
        raw[-8:-4] = struct.pack("<f", bad)
        with pytest.raises(ValidationError):
            load_segments(io.BytesIO(bytes(raw)))
    path = tmp_path / "nan.lcms"
    path.write_bytes(bytes(raw))
    assert run_cli(["inspect", str(path)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "Traceback" not in stderr


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


@pytest.mark.parametrize("montage_id", [5, None, b"cap"])
def test_montage_id_must_be_a_string(montage_id):
    with pytest.raises(ValidationError, match="montage id must be a string"):
        Montage(montage_id, ("a",))


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


class FullDiskFile(io.FileIO):
    """A file on a disk with room for 20 bytes: a write past them stores what
    fits, then raises ENOSPC."""

    def write(self, b):
        room = max(20 - self.tell(), 0)
        b = memoryview(b).cast("B")
        if len(b) > room:
            super().write(b[:room])
            raise OSError(errno.ENOSPC, "no space left on device")
        return super().write(b)


# writer, file name, the old value, a new value with other bytes
FAILING_WRITES = {
    "write_recording": (
        write_recording, "rec.lcmr",
        Recording(Montage("old", ("a", "b")), 256.0, 1.0, np.ones((2, 3), np.float32)),
        Recording(Montage("new", ("c", "d", "e")), 128.0, 1.0,
                  np.zeros((3, 3), np.float32))),
    "save_segments": (
        save_segments, "seg.lcms",
        SegmentBatch(np.ones((2, 1, 3), np.float32), 256.0, labels=np.array([0, 1])),
        SegmentBatch(np.zeros((2, 1, 3), np.float32), 256.0, labels=np.array([1, 0]))),
    "save_checkpoint": (
        save_checkpoint, "model.lcmc",
        one_tensor_checkpoint(1, np.ones(3, np.float32)),
        one_tensor_checkpoint(2, np.zeros(3, np.float32))),
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
def test_write_failing_midway_keeps_old_file(writer, tmp_path, monkeypatch):
    write, name, old, new = FAILING_WRITES[writer]
    path = tmp_path / name
    write(old, path)
    old_files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert write(new, io.BytesIO()) > 20  # the failure comes midway

    monkeypatch.setattr(data, "open", FullDiskFile, raising=False)
    with pytest.raises(OSError):
        write(new, path)
    assert path.read_bytes() == old_files[name]
    if writer == "write_recording":
        assert read_recording(path) == old
    # exactly the old file: no "<path>.tmp" is left and nothing else was written
    assert set(old_files) == {name}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old_files


# the package's only file writers: the crash-safe helper and the streamed step log
FILE_WRITERS = {("data", "_write"), ("trainer", "run_pretraining")}


def writes_a_file(call: ast.Call) -> bool:
    """Whether `call` is `open` with a mode that can write, `.write_text` or
    `.write_bytes`. A mode that is not a literal counts as writing."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")) for mode in modes)


def test_files_are_written_only_by_the_crash_safe_helper_and_the_step_log():
    found = {}

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes_a_file(child):
                found.setdefault((module, func), []).append(child.lineno)
            visit(child, module, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert set(found) == FILE_WRITERS, found


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



def test_checkpoint_group_mismatch_names_first_tensor():
    # the group check is the encoder's layout check run against theta: it
    # names the first differing tensor and claims nothing about an encoder
    theta = {"a": np.zeros(2, np.float32), "b": np.zeros(3, np.float32)}
    xi = {"a": theta["a"], "b": np.zeros(4, np.float32), "c": theta["a"]}
    with pytest.raises(ValidationError) as err:
        Checkpoint(0, theta=theta, xi=xi, m=theta, v=theta)
    assert str(err.value) == ("checkpoint tensor 'xi/b' has shape (4,), expected (3,): "
                              "checkpoint group 'xi' does not have theta's names and shapes")
    with pytest.raises(ValidationError, match="'opt/v/c' is not in group 'theta'"):
        Checkpoint(0, theta=theta, xi=theta, m=theta, v=dict(theta, c=theta["a"]))
    raw = lcmc_scalars(*(prefix + name for prefix in (b"opt/m/", b"opt/v/", b"theta/")
                         for name in (b"a", b"b")), b"xi/a", b"xi/c")
    with pytest.raises(FormatError, match="'xi/b' is missing") as err:
        load_checkpoint(io.BytesIO(raw))
    assert err.value.kind == "header" and "encoder" not in str(err.value)

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


def lcmr(m, rate, t, scale, *strings):
    """An LCMR header, then `strings` (bytes) each after its u16 length."""
    return struct.pack("<4sHIdQd", b"LCMR", 2, m, rate, t, scale) + b"".join(
        struct.pack("<H", len(text)) + text for text in strings)


ONE = struct.pack("<f", 1.0)

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
    # empty tensors, so no data to read, of shapes numpy cannot make
    "lcmc-rank-65": (b"LCMC" + struct.pack("<HQH", 1, 0, 7) + b"theta/w"
                     + struct.pack("<B65I", 65, 0, *[1] * 64), "header"),
    "lcmc-zero-dim-huge": (b"LCMC" + struct.pack("<HQH", 1, 0, 7) + b"theta/w"
                           + struct.pack("<B4I", 4, 0, *[2 ** 32 - 1] * 3), "header"),
    "lcms-labels": (struct.pack("<4sHIIIdB", b"LCMS", 1, 2 ** 32 - 1, 1, 1,
                                256.0, 1), "truncated"),
    "lcms-has-labels-7": (struct.pack("<4sHIIIdB", b"LCMS", 1, 1, 1, 1, 256.0, 7)
                          + struct.pack("<Hf", 0, 1.0), "header"),
    "lcms-payload": (struct.pack("<4sHIIIdB", b"LCMS", 1, 2 ** 32 - 1,
                                 2 ** 32 - 1, 2 ** 32 - 1, 256.0, 0), "truncated"),
    "lcmr-payload": (lcmr(1, 256.0, 2 ** 64 - 1, 1.0, b"cap", b"a"), "truncated"),
    # header values that the Recording / SegmentBatch invariants reject
    "lcmr-rate-0": (lcmr(1, 0.0, 1, 1.0, b"cap", b"a") + ONE, "header"),
    "lcmr-rate-nan": (lcmr(1, float("nan"), 1, 1.0, b"cap", b"a") + ONE, "header"),
    "lcmr-scale-0": (lcmr(1, 256.0, 1, 0.0, b"cap", b"a") + ONE, "header"),
    "lcmr-scale-negative": (lcmr(1, 256.0, 1, -1.0, b"cap", b"a") + ONE, "header"),
    "lcms-rate-0": (struct.pack("<4sHIIIdBf", b"LCMS", 1, 1, 1, 1, 0.0, 0, 1.0),
                    "header"),
    "lcmr-rate-inf": (lcmr(1, float("inf"), 1, 1.0, b"cap", b"a") + ONE, "header"),
    "lcmr-scale-inf": (lcmr(1, 256.0, 1, float("inf"), b"cap", b"a") + ONE, "header"),
    "lcms-rate-inf": (struct.pack("<4sHIIIdBf", b"LCMS", 1, 1, 1, 1, float("inf"), 0,
                                  1.0), "header"),
    # a segment batch holds at least one segment
    "lcms-zero-segments": (struct.pack("<4sHIIIdB", b"LCMS", 1, 0, 1, 1, 256.0, 0),
                           "header"),
    # the montage strings after the LCMR header
    "lcmr-v1": (struct.pack("<4sHIdQdf", b"LCMR", 1, 1, 256.0, 1, 1.0, 1.0), "version"),
    "lcmr-name-cut-short": (lcmr(1, 256.0, 1, 1.0, b"cap") + struct.pack("<H", 5) + b"ab",
                            "truncated"),
    "lcmr-name-not-utf8": (lcmr(1, 256.0, 1, 1.0, b"cap", b"\xff\xfe") + ONE, "header"),
    "lcmr-duplicate-names": (lcmr(2, 256.0, 1, 1.0, b"cap", b"a", b"a") + ONE * 2,
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


def valid_files() -> dict:
    """Small valid LCMR, LCMS and LCMC files, by magic."""
    files = {}
    for value, write in (
            (small_recording(m=2, t=5), write_recording),
            (SegmentBatch(np.ones((2, 2, 3), np.float32), 128.0,
                          labels=np.array([1, 0])), save_segments),
            (checkpoint_fixture(), save_checkpoint)):
        sink = io.BytesIO()
        write(value, sink)
        files[sink.getvalue()[:4]] = sink.getvalue()
    return files


VALID_FILES = valid_files()


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """`raw` after one to four truncations, bit flips or overwritten u32 words."""
    raw = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["truncate", "flip", "word"]))
        if kind == "truncate":
            del raw[draw(st.integers(0, len(raw))):]
        elif kind == "flip" and raw:
            bit = draw(st.integers(0, 8 * len(raw) - 1))
            raw[bit // 8] ^= 1 << (bit % 8)
        elif kind == "word" and len(raw) >= 4:
            at = draw(st.integers(0, len(raw) - 4))
            word = draw(st.sampled_from([0, 1, 0xFFFF, 2 ** 31, 2 ** 32 - 1])
                        | st.integers(0, 2 ** 32 - 1))
            raw[at:at + 4] = struct.pack("<I", word)
    return bytes(raw)


@pytest.mark.parametrize("magic", sorted(VALID_FILES), ids=lambda m: m.decode())
def test_readers_reject_mutated_files_only_with_package_errors(magic):
    @settings(max_examples=300, deadline=None)
    @given(raw=mutated(VALID_FILES[magic]))
    def read(raw):
        try:
            LOADERS[magic](io.BytesIO(raw))
        except (FormatError, ValidationError):
            pass

    read()


class Unseekable(io.RawIOBase):
    """A byte stream that can only be read forward, like a pipe."""

    def __init__(self, raw: bytes):
        self._f = io.BytesIO(raw)

    def readable(self):
        return True

    def readinto(self, b):
        return self._f.readinto(b)


def test_unseekable_streams_roundtrip_and_reject_truncation():
    rec = small_recording(m=3, t=50)
    batch = SegmentBatch(np.arange(24, dtype=np.float32).reshape(2, 3, 4), 128.0,
                         labels=np.array([1, 0]))
    ckpt = checkpoint_fixture()
    for value, write, read in ((rec, write_recording, read_recording),
                               (batch, save_segments, load_segments),
                               (ckpt, save_checkpoint, load_checkpoint)):
        sink = io.BytesIO()
        write(value, sink)
        raw = sink.getvalue()
        back = read(Unseekable(raw))
        again = io.BytesIO()
        write(back, again)
        assert again.getvalue() == raw
        with pytest.raises(FormatError) as err:
            read(Unseekable(raw[:-3]))
        assert err.value.kind == "truncated"


# bytes of each fixed header: the magic, the version and the numbers after them
FIXED_HEADER_LEN = {b"LCMR": HEADER_LEN, b"LCMS": 27, b"LCMC": 14}


def header_cases(raw: bytes) -> list:
    """(bytes, expected kind) for a valid file `raw` broken in its fixed header."""
    size, wrong = FIXED_HEADER_LEN[raw[:4]], b"XXXX" + raw[4:]
    return [(raw[:3], "truncated"), (raw[:5], "truncated"), (raw[:size - 1], "truncated"),
            (wrong[:5], "truncated"), (wrong[:size - 1], "truncated"),
            (wrong, "magic"), (wrong[:size], "magic"),
            (raw[:4] + struct.pack("<H", 9) + raw[6:], "version")]


@pytest.mark.parametrize("stream", [io.BytesIO, Unseekable], ids=["seekable", "unseekable"])
@pytest.mark.parametrize("magic", sorted(VALID_FILES), ids=lambda m: m.decode())
def test_every_format_checks_its_fixed_header_by_one_rule(stream, magic):
    # a cut inside the fixed header is truncated whatever the magic, a whole
    # header is then checked for its magic, and then for its version
    for raw, kind in header_cases(VALID_FILES[magic]):
        with pytest.raises(FormatError) as err:
            LOADERS[magic](stream(raw))
        assert err.value.kind == kind, (raw, kind)


@pytest.mark.parametrize("stream", [io.BytesIO, Unseekable], ids=["seekable", "unseekable"])
def test_huge_declared_payload_allocates_nothing_of_its_size(stream):
    # 2**40 declared samples (4 TiB) on a file that holds four bytes of them
    raw = lcmr(1, 256.0, 2 ** 40, 1.0, b"cap", b"a") + b"\x00" * 4
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            read_recording(stream(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.kind == "truncated"
    assert peak < 1 << 22


class Trickle(Unseekable):
    """An unseekable stream whose every read returns at most 7 bytes, so the
    payload's floats are split across reads."""

    def readinto(self, b):
        return self._f.readinto(memoryview(b)[:7])


def roundtrip_cases():
    """(value, writer, reader) for each format; LCMC also with an empty and a
    0-d tensor."""
    return [(small_recording(m=3, t=50), write_recording, read_recording),
            (SegmentBatch(np.arange(24, dtype=np.float32).reshape(2, 3, 4), 128.0,
                          labels=np.array([1, 0])), save_segments, load_segments),
            (checkpoint_fixture(), save_checkpoint, load_checkpoint),
            (one_tensor_checkpoint(3, np.zeros((0, 3), np.float32)), save_checkpoint,
             load_checkpoint),
            (one_tensor_checkpoint(5, np.array(2.5, np.float32)), save_checkpoint,
             load_checkpoint)]


@pytest.mark.parametrize("stream", [io.BytesIO, Unseekable, Trickle],
                         ids=["seekable", "unseekable", "trickle"])
def test_every_format_roundtrips_bytewise_whatever_the_read_sizes(stream):
    for value, write, read in roundtrip_cases():
        sink = io.BytesIO()
        write(value, sink)
        raw = sink.getvalue()
        again = io.BytesIO()
        write(read(stream(raw)), again)
        assert again.getvalue() == raw


def test_read_arrays_are_writable_native_float32():
    sink = io.BytesIO()
    write_recording(small_recording(), sink)
    samples = read_recording(io.BytesIO(sink.getvalue())).samples
    assert samples.dtype == np.float32 and samples.dtype.isnative
    assert samples.flags.writeable and samples.flags.c_contiguous
    samples[0, 0] = 0.0


def payload_files(n_floats):
    """{magic: (file bytes, payload offset)}: each format with its floats last,
    `n_floats` of them in LCMR and LCMS and in LCMC's last tensor."""
    values = np.linspace(-1.0, 1.0, n_floats, dtype=np.float32)
    files = {}
    for value, write in (
            (Recording(default_montage(2), 256.0, 1.0, values.reshape(2, -1)),
             write_recording),
            (SegmentBatch(values.reshape(2, 2, -1), 256.0), save_segments),
            (one_tensor_checkpoint(1, values), save_checkpoint)):
        sink = io.BytesIO()
        write(value, sink)
        raw = sink.getvalue()
        files[raw[:4]] = (raw, len(raw) - 4 * n_floats)
    return files


CHUNK = data._READ_CHUNK
CUT_FILES = payload_files(CHUNK // 2 + 4)  # a payload of two chunks and 16 bytes


@pytest.mark.parametrize("stream", [io.BytesIO, Unseekable], ids=["seekable", "unseekable"])
@pytest.mark.parametrize("magic", sorted(CUT_FILES), ids=lambda m: m.decode())
@pytest.mark.parametrize("kept", [1, 4, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
                                  -1], ids=lambda k: str(k))
def test_payload_cut_anywhere_is_truncated(stream, magic, kept):
    # `kept` payload bytes survive the cut; -1 drops only the last byte
    raw, start = CUT_FILES[magic]
    with pytest.raises(FormatError) as err:
        LOADERS[magic](stream(raw[:start + kept] if kept > 0 else raw[:kept]))
    assert err.value.kind == "truncated"


@pytest.mark.parametrize("stream", [io.BytesIO, Unseekable], ids=["seekable", "unseekable"])
@pytest.mark.parametrize("magic", [b"LCMC", b"LCMR", b"LCMS"], ids=lambda m: m.decode())
def test_payload_read_allocates_the_payload_once(stream, magic):
    n_floats = 1 << 21  # 8 MiB of payload
    raw, _ = payload_files(n_floats)[magic]
    source = stream(raw)
    tracemalloc.start()
    try:
        LOADERS[magic](source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # LCMC holds four copies of the tensor, one per checkpoint group
    payload = 4 * n_floats * (4 if magic == b"LCMC" else 1)
    assert peak <= payload + (2 << 20)
