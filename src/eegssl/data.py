"""Core data types and bit-exact recording/checkpoint file I/O.

Recording format (LCMR), little-endian throughout:
    magic "LCMR" | version u16 (=1) | channel count u32 | sample_rate f64 |
    samples per channel u64 | scale_to_mV f64 | payload M*T f32, channel-major.
Montage metadata lives in a text sidecar "<path>.meta" with lines
`montage_id=...` and `channels=a,b,c`; stream-level reads fall back to
generic channel names.

Checkpoint format (LCMC):
    magic "LCMC" | version u16 (=1) | step u64 | tensor table, sorted by name:
    name length u16 | name bytes (utf-8) | rank u8 | dims u32 each | f32 data.
A tensor name is its group's prefix plus the parameter name: "theta/" online
parameters, "xi/" target parameters, "opt/m/" and "opt/v/" AdamW moments.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from .errors import FormatError, ValidationError

LCMR_MAGIC = b"LCMR"
LCMC_MAGIC = b"LCMC"
LCMR_VERSION = 1
LCMC_VERSION = 1
_LCMR_HEADER = struct.Struct("<4sHIdQd")
_READ_CHUNK = 1 << 20

_GROUP_PREFIXES = {"theta": "theta/", "xi": "xi/", "m": "opt/m/", "v": "opt/v/"}

ByteSink = Union[str, Path, BinaryIO]


# --- domain types ---------------------------------------------------------

@dataclass(frozen=True)
class Montage:
    """Electrode set: an ordered list of unique channel names."""

    montage_id: str
    channel_names: tuple

    def __post_init__(self):
        names = tuple(str(n) for n in self.channel_names)
        object.__setattr__(self, "channel_names", names)
        if len(names) == 0:
            raise ValidationError("montage needs at least one channel")
        if len(set(names)) != len(names):
            raise ValidationError("channel names must be unique")
        for n in names:
            if not n or "," in n or "\n" in n or "=" in n:
                raise ValidationError(f"invalid channel name {n!r}")

    @property
    def channel_count(self) -> int:
        return len(self.channel_names)


def default_montage(n_channels: int, montage_id: str = "unknown") -> Montage:
    return Montage(montage_id, tuple(f"ch{i}" for i in range(n_channels)))


@dataclass(eq=False)
class Recording:
    """Multichannel EEG time series, channel-major samples of shape (M, T)."""

    montage: Montage
    sample_rate_hz: float
    scale_to_mV: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 2:
            raise ValidationError("samples must be a 2-D (channels x time) array")
        if self.samples.shape[0] != self.montage.channel_count:
            raise ValidationError(
                f"samples have {self.samples.shape[0]} rows but montage has "
                f"{self.montage.channel_count} channels")
        if self.samples.shape[1] < 1:
            raise ValidationError("recording must contain at least one sample")
        if not np.isfinite(self.samples).all():
            raise ValidationError("samples contain non-finite values")
        if not (self.sample_rate_hz > 0):
            raise ValidationError("sample_rate_hz must be positive")
        if not (self.scale_to_mV > 0):
            raise ValidationError("scale_to_mV must be positive")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Recording):
            return NotImplemented
        return (self.montage == other.montage
                and self.sample_rate_hz == other.sample_rate_hz
                and self.scale_to_mV == other.scale_to_mV
                and self.samples.dtype == other.samples.dtype
                and self.samples.shape == other.samples.shape
                and self.samples.tobytes() == other.samples.tobytes())


@dataclass(eq=False)
class SegmentBatch:
    """Fixed-length segments stacked as (n, M, T_seg) with optional labels."""

    segments: np.ndarray
    sample_rate_hz: float
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.segments = np.asarray(self.segments)
        if self.segments.ndim != 3:
            raise ValidationError("segments must have shape (n, channels, samples)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.segments.shape[0],):
                raise ValidationError("labels must align 1:1 with segments")
        if not (self.sample_rate_hz > 0):
            raise ValidationError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return self.segments.shape[0]


@dataclass(eq=False)
class Checkpoint:
    """Training state at a schedule position: online parameters theta, target
    parameters xi and AdamW moments m and v, each a name -> array dict. The
    optimizer step counter equals `step` (one AdamW step per training step)."""

    step: int
    theta: dict
    xi: dict
    m: dict
    v: dict

    def __post_init__(self):
        if self.step < 0:
            raise ValidationError("checkpoint step must be >= 0")
        layout = {k: np.shape(t) for k, t in self.theta.items()}
        for group in ("xi", "m", "v"):
            if {k: np.shape(t) for k, t in getattr(self, group).items()} != layout:
                raise ValidationError(
                    f"checkpoint group {group!r} does not have theta's names and shapes")


def tensor_name(group: str, name: str) -> str:
    """The LCMC name of tensor `name` of checkpoint group `group`."""
    return _GROUP_PREFIXES[group] + name


# --- low-level helpers ----------------------------------------------------

def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly n bytes, at most _READ_CHUNK at a time.

    A header may declare any size; reading in bounded chunks makes a short
    file end in FormatError before anything of the declared size is
    allocated.
    """
    chunks = []
    while n > 0:
        buf = f.read(min(n, _READ_CHUNK))
        if not buf:
            raise FormatError("truncated", f"truncated file while reading {what}")
        chunks.append(buf)
        n -= len(buf)
    return b"".join(chunks)


def _read_f32(f: BinaryIO, count: int, what: str) -> np.ndarray:
    """Read `count` little-endian float32 values through `_read_exact` into
    a new writable array.

    The read holds the chunks, their join and the array at once, then
    frees the first two. Reading straight into one preallocated array would
    hold only the array, but then training and feature extraction later in
    the same process ran slower (benchmark `pretrain-small`: 13% fewer
    trained and 23% fewer encoded segments per second). glibc raises its
    mmap and trim thresholds when a large mapped block is freed; the freed
    copy raises them before the hot loop, whose buffers then stay in the
    heap instead of being mapped and faulted in again at every step.
    """
    return np.frombuffer(_read_exact(f, 4 * count, what), dtype="<f4").astype(np.float32)


class _CountingWriter:
    def __init__(self, f: BinaryIO):
        self.f = f
        self.count = 0

    def write(self, b: bytes):
        self.f.write(b)
        self.count += len(b)


def _sidecar_path(path: Union[str, Path]) -> Path:
    return Path(str(path) + ".meta")


# --- LCMR recording I/O ----------------------------------------------------

def write_recording(rec: Recording, destination: ByteSink) -> int:
    """Write `rec` in LCMR form; returns bytes written to the main file.

    When `destination` is a path the montage sidecar is written next to it.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as f:
            n = write_recording(rec, f)
        side = _sidecar_path(destination)
        side.write_text(
            f"montage_id={rec.montage.montage_id}\n"
            f"channels={','.join(rec.montage.channel_names)}\n")
        return n
    w = _CountingWriter(destination)
    w.write(_LCMR_HEADER.pack(
        LCMR_MAGIC, LCMR_VERSION, rec.n_channels,
        float(rec.sample_rate_hz), rec.n_samples, float(rec.scale_to_mV)))
    w.write(np.ascontiguousarray(rec.samples, dtype="<f4").tobytes())
    return w.count


def read_recording(source: ByteSink) -> Recording:
    """Parse an LCMR byte source back into a Recording.

    Path sources also consult the "<path>.meta" sidecar for montage names;
    stream sources get generic ones.
    """
    if isinstance(source, (str, Path)):
        montage = _read_sidecar(_sidecar_path(source))
        with open(source, "rb") as f:
            rec = read_recording(f)
        if montage is not None:
            if montage.channel_count != rec.n_channels:
                raise FormatError(
                    "sidecar",
                    f"sidecar lists {montage.channel_count} channels but file has "
                    f"{rec.n_channels}")
            rec = Recording(montage, rec.sample_rate_hz, rec.scale_to_mV, rec.samples)
        return rec
    header = _read_exact(source, _LCMR_HEADER.size, "LCMR header")
    magic, version, m, rate, t, scale = _LCMR_HEADER.unpack(header)
    if magic != LCMR_MAGIC:
        raise FormatError("magic", f"bad magic {magic!r}, expected {LCMR_MAGIC!r}")
    if version != LCMR_VERSION:
        raise FormatError("version", f"unsupported LCMR version {version}")
    if m < 1 or t < 1:
        raise FormatError("header", f"invalid dimensions {m}x{t}")
    samples = _read_f32(source, m * t, "sample payload").reshape(m, t)
    if not np.isfinite(samples).all():
        raise ValidationError("recording payload contains non-finite samples")
    try:
        return Recording(default_montage(m), rate, scale, samples)
    except ValidationError as exc:
        raise FormatError("header", str(exc)) from None


def _read_sidecar(path: Path) -> Optional[Montage]:
    if not path.exists():
        return None
    montage_id, channels = "unknown", None
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, value = line.split("=", 1)
        if key == "montage_id":
            montage_id = value
        elif key == "channels":
            channels = tuple(value.split(","))
    if channels is None:
        raise FormatError("sidecar", f"sidecar {path} missing channels key")
    try:
        return Montage(montage_id, channels)
    except ValidationError as exc:
        raise FormatError("sidecar", f"sidecar {path}: {exc}") from None


# --- LCMC checkpoint I/O ----------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, destination: ByteSink) -> int:
    """Write a checkpoint in LCMC form; returns bytes written.

    A path destination is written to "<path>.tmp" and then renamed over the
    path, so a save that fails midway leaves any earlier file intact.
    """
    if isinstance(destination, (str, Path)):
        tmp = Path(str(destination) + ".tmp")
        try:
            with open(tmp, "wb") as f:
                n = save_checkpoint(ckpt, f)
            os.replace(tmp, destination)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return n
    w = _CountingWriter(destination)
    w.write(LCMC_MAGIC)
    w.write(struct.pack("<HQ", LCMC_VERSION, ckpt.step))
    tensors = {tensor_name(group, name): t for group in _GROUP_PREFIXES
               for name, t in getattr(ckpt, group).items()}
    for name in sorted(tensors):
        # np.ascontiguousarray would promote 0-d tensors to 1-d
        tensor = np.asarray(tensors[name], dtype="<f4", order="C")
        encoded = name.encode("utf-8")
        w.write(struct.pack("<H", len(encoded)))
        w.write(encoded)
        w.write(struct.pack("<B", tensor.ndim))
        for dim in tensor.shape:
            w.write(struct.pack("<I", dim))
        w.write(tensor.tobytes())
    return w.count


def load_checkpoint(source: ByteSink) -> Checkpoint:
    """Parse an LCMC byte source back into a Checkpoint."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            return load_checkpoint(f)
    magic = _read_exact(source, 4, "LCMC magic")
    if magic != LCMC_MAGIC:
        raise FormatError("magic", f"bad magic {magic!r}, expected {LCMC_MAGIC!r}")
    version, step = struct.unpack("<HQ", _read_exact(source, 10, "LCMC header"))
    if version != LCMC_VERSION:
        raise FormatError("version", f"unsupported LCMC version {version}")
    groups = {group: {} for group in _GROUP_PREFIXES}
    while True:
        head = source.read(2)
        if head == b"" or head is None:
            break
        if len(head) != 2:
            raise FormatError("truncated", "truncated file while reading tensor name length")
        (name_len,) = struct.unpack("<H", head)
        raw_name = _read_exact(source, name_len, "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("header", f"tensor name {raw_name!r} is not utf-8") from None
        (rank,) = struct.unpack("<B", _read_exact(source, 1, "tensor rank"))
        dims = tuple(
            struct.unpack("<I", _read_exact(source, 4, "tensor dims"))[0]
            for _ in range(rank))
        count = math.prod(dims)  # python ints: no int64 wrap-around
        data = _read_f32(source, count, f"tensor {name!r} data").reshape(dims)
        group = next((g for g, prefix in _GROUP_PREFIXES.items()
                      if name.startswith(prefix)), None)
        if group is None:
            raise FormatError("header", f"tensor {name!r} is in no checkpoint group")
        tensors, key = groups[group], name[len(_GROUP_PREFIXES[group]):]
        if key in tensors:
            raise FormatError("duplicate", f"duplicate tensor name {name!r}")
        tensors[key] = data
    try:
        return Checkpoint(step=step, **groups)
    except ValidationError as exc:
        raise FormatError("header", str(exc)) from None


# --- LCMS segment archive (plumbing for the CLI) ----------------------------

LCMS_MAGIC = b"LCMS"
_LCMS_HEADER = struct.Struct("<4sHIIIdB")


def save_segments(batch: SegmentBatch, destination: ByteSink) -> int:
    """Segment archive: header | optional u16 labels | f32 payload (n, M, T)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as f:
            return save_segments(batch, f)
    n, m, t = batch.segments.shape
    w = _CountingWriter(destination)
    has_labels = batch.labels is not None
    if has_labels and (batch.labels.min() < 0 or batch.labels.max() >= 1 << 16):
        raise ValidationError("labels must fit in u16")
    w.write(_LCMS_HEADER.pack(LCMS_MAGIC, 1, n, m, t,
                              float(batch.sample_rate_hz), int(has_labels)))
    if has_labels:
        w.write(np.ascontiguousarray(batch.labels, dtype="<u2").tobytes())
    w.write(np.ascontiguousarray(batch.segments, dtype="<f4").tobytes())
    return w.count


def load_segments(source: ByteSink) -> SegmentBatch:
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            return load_segments(f)
    header = _read_exact(source, _LCMS_HEADER.size, "LCMS header")
    magic, version, n, m, t, rate, has_labels = _LCMS_HEADER.unpack(header)
    if magic != LCMS_MAGIC:
        raise FormatError("magic", f"bad magic {magic!r}, expected {LCMS_MAGIC!r}")
    if version != 1:
        raise FormatError("version", f"unsupported LCMS version {version}")
    if has_labels not in (0, 1):
        raise FormatError("header", f"has_labels byte is {has_labels}, expected 0 or 1")
    labels = None
    if has_labels:
        raw = _read_exact(source, 2 * n, "labels")
        labels = np.frombuffer(raw, dtype="<u2").astype(np.int64)
    segments = _read_f32(source, n * m * t, "segment payload").reshape(n, m, t)
    try:
        return SegmentBatch(segments=segments, sample_rate_hz=rate, labels=labels)
    except ValidationError as exc:
        raise FormatError("header", str(exc)) from None
