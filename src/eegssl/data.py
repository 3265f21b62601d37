"""Core data types and bit-exact recording/checkpoint file I/O.

Recording format (LCMR), little-endian throughout:
    magic "LCMR" | version u16 (=2) | channel count u32 | sample_rate f64 |
    samples per channel u64 | scale_to_mV f64 | montage id | M channel names |
    payload M*T f32, channel-major.

Checkpoint format (LCMC):
    magic "LCMC" | version u16 (=1) | step u64 | tensor table, sorted by name:
    name | rank u8 | dims u32 each | f32 data.
A tensor name is its group's prefix plus the parameter name: "theta/" online
parameters, "xi/" target parameters, "opt/m/" and "opt/v/" AdamW moments.

Every string (montage id, channel name, tensor name) is a u16 byte length
followed by that many UTF-8 bytes. LCMR, LCMC and the LCMS segment archive
are all written by `_write`, which makes a path destination crash-safe.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Optional, Union

import numpy as np

from .errors import FormatError, ValidationError

LCMR_MAGIC = b"LCMR"
LCMC_MAGIC = b"LCMC"
LCMS_MAGIC = b"LCMS"
LCMR_VERSION = 2
LCMC_VERSION = 1
LCMS_VERSION = 1
_LCMR_HEADER = struct.Struct("<4sHIdQd")
_LCMS_HEADER = struct.Struct("<4sHIIIdB")
_READ_CHUNK = 1 << 20
_MAX_STR_BYTES = 0xFFFF

_GROUP_PREFIXES = {"theta": "theta/", "xi": "xi/", "m": "opt/m/", "v": "opt/v/"}

ByteSink = Union[str, Path, BinaryIO]


# --- domain types ---------------------------------------------------------

@dataclass(frozen=True)
class Montage:
    """Electrode set: an ordered list of unique channel names. The id and
    each name encode as UTF-8 in at most 65535 bytes, the most an LCMR
    string holds, so any montage that builds can be written."""

    montage_id: str
    channel_names: tuple

    def __post_init__(self):
        if not isinstance(self.montage_id, str):
            raise ValidationError(
                f"montage id must be a string, not {type(self.montage_id).__name__}")
        names = tuple(str(n) for n in self.channel_names)
        object.__setattr__(self, "channel_names", names)
        if len(names) == 0:
            raise ValidationError("montage needs at least one channel")
        if len(set(names)) != len(names):
            raise ValidationError("channel names must be unique")
        for text in (self.montage_id, *names):
            try:
                size = len(text.encode("utf-8"))
            except UnicodeEncodeError:
                raise ValidationError(f"{text!r} does not encode as UTF-8") from None
            if size > _MAX_STR_BYTES:
                raise ValidationError(
                    f"{text[:16]!r}... encodes in {size} UTF-8 bytes, above {_MAX_STR_BYTES}")

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
        if not (0 < self.sample_rate_hz < math.inf):
            raise ValidationError("sample_rate_hz must be positive and finite")
        if not (0 < self.scale_to_mV < math.inf):
            raise ValidationError("scale_to_mV must be positive and finite")

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
    """Segments stacked as (n, M, T_seg), no axis empty, with optional labels."""

    segments: np.ndarray
    sample_rate_hz: float
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.segments = np.asarray(self.segments)
        if self.segments.ndim != 3:
            raise ValidationError("segments must have shape (n, channels, samples)")
        if 0 in self.segments.shape:
            raise ValidationError("segments need n, channels and samples >= 1")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.segments.shape[0],):
                raise ValidationError("labels must align 1:1 with segments")
        if not (0 < self.sample_rate_hz < math.inf):
            raise ValidationError("sample_rate_hz must be positive and finite")

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
        for group in ("xi", "m", "v"):
            check_layout(getattr(self, group), self.theta, group, reference_group="theta")


def tensor_name(group: str, name: str) -> str:
    """The LCMC name of tensor `name` of checkpoint group `group`."""
    return _GROUP_PREFIXES[group] + name


def check_layout(tensors: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray],
                 group: str, reference_group: Optional[str] = None) -> None:
    """Reject checkpoint `group` unless its tensors have exactly the names and
    shapes of `reference`: the configured encoder's parameters or, given
    `reference_group`, that group of the same checkpoint. The error names the
    first tensor that differs."""
    if reference_group is None:
        stranger = "is not an encoder parameter"
        mismatch = "the checkpoint does not match the configured encoder"
    else:
        stranger = f"is not in group {reference_group!r}"
        mismatch = (f"checkpoint group {group!r} does not have "
                    f"{reference_group}'s names and shapes")
    for name in sorted(set(tensors) | set(reference)):
        if name not in tensors:
            problem = "is missing"
        elif name not in reference:
            problem = stranger
        elif np.shape(tensors[name]) != np.shape(reference[name]):
            problem = (f"has shape {np.shape(tensors[name])}, "
                       f"expected {np.shape(reference[name])}")
        else:
            continue
        raise ValidationError(
            f"checkpoint tensor {tensor_name(group, name)!r} {problem}: {mismatch}")


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

    The read holds the chunks, their join and the array at once, then frees
    the first two. The copy stays because later memory and speed in the
    process depend on it, under glibc's dynamic malloc thresholds and under
    the CLI's fixed ones (`cli._fix_malloc_thresholds`) alike. Reading
    straight into one array slowed later training and feature extraction
    under dynamic thresholds (benchmark `pretrain-small`: 13% fewer trained
    and 23% fewer encoded segments per second). Under the CLI, viewing the
    chunks through one bytearray instead raised benchmark `ingest-probe`
    `peak_rss_mb` from 265 to 268-271 MB and moved `pretrain-small`'s memory
    figures up or down, depending on how the bytearray was built. So a
    direct reader must be measured on these figures, as its own change.
    """
    return np.frombuffer(_read_exact(f, 4 * count, what), dtype="<f4").astype(np.float32)


def _pack_str(text: str) -> bytes:
    """`text` as a u16 byte length and its UTF-8 bytes."""
    encoded = text.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded


def _read_str(f: BinaryIO, what: str, at_end_ok: bool = False) -> Optional[str]:
    """Read a string written by `_pack_str`. With `at_end_ok`, a source
    already at its end gives None."""
    head = f.read(2) or b""
    if not head and at_end_ok:
        return None
    (n,) = struct.unpack("<H", head + _read_exact(f, 2 - len(head), f"{what} length"))
    raw = _read_exact(f, n, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("header", f"{what} {raw!r} is not utf-8") from None


def _write(destination: ByteSink, parts: Iterable) -> int:
    """Write each buffer of `parts` in order; returns their summed size. A path is
    written as "<path>.tmp" and renamed over, so a failed write keeps the old file."""
    if isinstance(destination, (str, Path)):
        tmp = Path(str(destination) + ".tmp")
        try:
            with open(tmp, "wb") as f:
                n = _write(f, parts)
            os.replace(tmp, destination)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return n
    n = 0
    for part in parts:
        destination.write(part)
        n += memoryview(part).nbytes
    return n


# --- LCMR recording I/O ----------------------------------------------------

def write_recording(rec: Recording, destination: ByteSink) -> int:
    """Write `rec`, montage included, in LCMR form; returns bytes written."""
    montage = rec.montage
    header = _LCMR_HEADER.pack(
        LCMR_MAGIC, LCMR_VERSION, rec.n_channels,
        float(rec.sample_rate_hz), rec.n_samples, float(rec.scale_to_mV))
    strings = b"".join(map(_pack_str, (montage.montage_id, *montage.channel_names)))
    return _write(destination,
                  (header + strings, np.ascontiguousarray(rec.samples, dtype="<f4")))


def read_recording(source: ByteSink) -> Recording:
    """Parse an LCMR byte source back into a Recording."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            return read_recording(f)
    header = _read_exact(source, _LCMR_HEADER.size, "LCMR header")
    magic, version, m, rate, t, scale = _LCMR_HEADER.unpack(header)
    if magic != LCMR_MAGIC:
        raise FormatError("magic", f"bad magic {magic!r}, expected {LCMR_MAGIC!r}")
    if version != LCMR_VERSION:
        raise FormatError("version", f"unsupported LCMR version {version}")
    if m < 1 or t < 1:
        raise FormatError("header", f"invalid dimensions {m}x{t}")
    montage_id = _read_str(source, "montage id")
    names = tuple(_read_str(source, "channel name") for _ in range(m))
    samples = _read_f32(source, m * t, "sample payload").reshape(m, t)
    if not np.isfinite(samples).all():
        raise ValidationError("recording payload contains non-finite samples")
    try:
        return Recording(Montage(montage_id, names), rate, scale, samples)
    except ValidationError as exc:
        raise FormatError("header", str(exc)) from None


# --- LCMC checkpoint I/O ----------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, destination: ByteSink) -> int:
    """Write a checkpoint in LCMC form; returns bytes written."""
    tensors = {tensor_name(group, name): t for group in _GROUP_PREFIXES
               for name, t in getattr(ckpt, group).items()}

    def parts():
        yield LCMC_MAGIC + struct.pack("<HQ", LCMC_VERSION, ckpt.step)
        for name in sorted(tensors):
            # np.ascontiguousarray would promote 0-d tensors to 1-d
            tensor = np.asarray(tensors[name], dtype="<f4", order="C")
            yield _pack_str(name) + struct.pack(f"<B{tensor.ndim}I", tensor.ndim,
                                                *tensor.shape)
            yield tensor

    return _write(destination, parts())


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
    while (name := _read_str(source, "tensor name", at_end_ok=True)) is not None:
        (rank,) = struct.unpack("<B", _read_exact(source, 1, "tensor rank"))
        dims = tuple(
            struct.unpack("<I", _read_exact(source, 4, "tensor dims"))[0]
            for _ in range(rank))
        count = math.prod(dims)  # python ints: no int64 wrap-around
        data = _read_f32(source, count, f"tensor {name!r} data")
        try:  # an empty tensor reads nothing, whatever its rank and dims
            data = data.reshape(dims)
        except ValueError as exc:
            raise FormatError("header", f"tensor {name!r} of rank {rank}: {exc}") from None
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

def save_segments(batch: SegmentBatch, destination: ByteSink) -> int:
    """Segment archive: header | optional u16 labels | f32 payload (n, M, T)."""
    n, m, t = batch.segments.shape
    has_labels = batch.labels is not None
    if has_labels and (batch.labels.min() < 0 or batch.labels.max() >= 1 << 16):
        raise ValidationError("labels must fit in u16")
    parts = [_LCMS_HEADER.pack(LCMS_MAGIC, LCMS_VERSION, n, m, t,
                               float(batch.sample_rate_hz), int(has_labels))]
    if has_labels:
        parts.append(np.ascontiguousarray(batch.labels, dtype="<u2"))
    parts.append(np.ascontiguousarray(batch.segments, dtype="<f4"))
    return _write(destination, parts)


def load_segments(source: ByteSink) -> SegmentBatch:
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            return load_segments(f)
    header = _read_exact(source, _LCMS_HEADER.size, "LCMS header")
    magic, version, n, m, t, rate, has_labels = _LCMS_HEADER.unpack(header)
    if magic != LCMS_MAGIC:
        raise FormatError("magic", f"bad magic {magic!r}, expected {LCMS_MAGIC!r}")
    if version != LCMS_VERSION:
        raise FormatError("version", f"unsupported LCMS version {version}")
    if has_labels not in (0, 1):
        raise FormatError("header", f"has_labels byte is {has_labels}, expected 0 or 1")
    labels = None
    if has_labels:
        raw = _read_exact(source, 2 * n, "labels")
        labels = np.frombuffer(raw, dtype="<u2").astype(np.int64)
    segments = _read_f32(source, n * m * t, "segment payload").reshape(n, m, t)
    try:
        batch = SegmentBatch(segments=segments, sample_rate_hz=rate, labels=labels)
    except ValidationError as exc:
        raise FormatError("header", str(exc)) from None
    # NaN propagates through min and max, so neither needs a payload-sized mask
    if not (np.isfinite(segments.min()) and np.isfinite(segments.max())):
        raise ValidationError("segment payload contains non-finite samples")
    return batch
