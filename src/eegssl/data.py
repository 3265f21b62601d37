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
are all written by `_write`, which makes a path destination crash-safe, and
all read by `_read`, one bounded reader, after one fixed-header check of
their magic and version, `_read_header`.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
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
_LCMC_HEADER = struct.Struct("<4sHQ")
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


def _all_finite(a: np.ndarray) -> bool:
    """Whether the non-empty array `a` holds no NaN or infinity. NaN
    propagates through min and max, so neither needs an `a`-sized mask."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _check_rate_and_scale(sample_rate_hz: float, scale_to_mV: float) -> None:
    if not (0 < sample_rate_hz < math.inf):
        raise ValidationError("sample_rate_hz must be positive and finite")
    if not (0 < scale_to_mV < math.inf):
        raise ValidationError("scale_to_mV must be positive and finite")


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
        _check_rate_and_scale(self.sample_rate_hz, self.scale_to_mV)
        if not _all_finite(self.samples):
            raise ValidationError("samples contain non-finite values")

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
        theta_shapes = {name: np.shape(t) for name, t in self.theta.items()}
        for group in ("xi", "m", "v"):
            check_layout(getattr(self, group), theta_shapes, group, reference_group="theta")


def tensor_name(group: str, name: str) -> str:
    """The LCMC name of tensor `name` of checkpoint group `group`."""
    return _GROUP_PREFIXES[group] + name


def check_layout(tensors: Mapping[str, np.ndarray], shapes: Mapping[str, tuple],
                 group: str, reference_group: Optional[str] = None) -> None:
    """Reject checkpoint `group` unless its tensors have exactly the names and
    shapes of the name -> shape table `shapes`: the configured encoder's
    parameters or, given `reference_group`, that group of the same
    checkpoint. The error names the first tensor that differs."""
    if reference_group is None:
        stranger = "is not an encoder parameter"
        mismatch = "the checkpoint does not match the configured encoder"
    else:
        stranger = f"is not in group {reference_group!r}"
        mismatch = (f"checkpoint group {group!r} does not have "
                    f"{reference_group}'s names and shapes")
    for name in sorted(set(tensors) | set(shapes)):
        if name not in tensors:
            problem = "is missing"
        elif name not in shapes:
            problem = stranger
        elif np.shape(tensors[name]) != shapes[name]:
            problem = f"has shape {np.shape(tensors[name])}, expected {shapes[name]}"
        else:
            continue
        raise ValidationError(
            f"checkpoint tensor {tensor_name(group, name)!r} {problem}: {mismatch}")


# --- low-level helpers ----------------------------------------------------

def _read(f: BinaryIO, n: int, what: str, at_end_ok: bool = False) -> Optional[np.ndarray]:
    """Read exactly `n` bytes into a new writable uint8 array, `readinto` one
    `_READ_CHUNK` slice at a time; one code path for seekable and unseekable
    sources. With `at_end_ok`, a source already at its end gives None.

    The array starts at one chunk and doubles, up to `n`, only when the bytes
    read have filled it. So a short file ends in FormatError having allocated
    at most twice the bytes it held plus one chunk, whatever size its header
    declares, and a whole read holds the bytes and nothing else: no chunk
    list, join or copy. Headers unpack the array, strings decode it, and
    payloads view it as `<f4` (then `astype` native float32, a no-op on
    little-endian hosts) and labels as `<u2`.
    """
    out = np.empty(min(n, _READ_CHUNK), dtype=np.uint8)
    done = 0
    while done < n:
        if done == out.size:
            out.resize(min(2 * out.size, n), refcheck=False)
        got = f.readinto(out[done:min(out.size, done + _READ_CHUNK)])
        if not got:
            if done == 0 and at_end_ok:
                return None
            raise FormatError("truncated", f"truncated file while reading {what}")
        done += got
    return out


@contextmanager
def _opened(source: ByteSink):
    """`source` itself, or the file at it if it is a path."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            yield f
    else:
        yield source


def _read_header(f: BinaryIO, layout: struct.Struct, magic: bytes, version: int) -> tuple:
    """Read the fixed header `layout`, which starts with the magic and the
    version, check both, and return its other fields. A file cut inside the
    header is truncated, whatever its first bytes."""
    kind = magic.decode()
    fields = layout.unpack(_read(f, layout.size, f"{kind} header"))
    if fields[0] != magic:
        raise FormatError("magic", f"bad magic {fields[0]!r}, expected {magic!r}")
    if fields[1] != version:
        raise FormatError("version", f"unsupported {kind} version {fields[1]}")
    return fields[2:]


@contextmanager
def _header_values():
    """Turn a ValidationError of the values a header declared into
    FormatError("header")."""
    try:
        yield
    except ValidationError as exc:
        raise FormatError("header", str(exc)) from None


def _pack_str(text: str) -> bytes:
    """`text` as a u16 byte length and its UTF-8 bytes."""
    encoded = text.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded


def _read_str(f: BinaryIO, what: str, at_end_ok: bool = False) -> Optional[str]:
    """Read a string written by `_pack_str`. With `at_end_ok`, a source
    already at its end gives None."""
    head = _read(f, 2, f"{what} length", at_end_ok)
    if head is None:
        return None
    raw = _read(f, *struct.unpack("<H", head), what).tobytes()
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
    with _opened(source) as f:
        m, rate, t, scale = _read_header(f, _LCMR_HEADER, LCMR_MAGIC, LCMR_VERSION)
        if m < 1 or t < 1:
            raise FormatError("header", f"invalid dimensions {m}x{t}")
        montage_id = _read_str(f, "montage id")
        names = tuple(_read_str(f, "channel name") for _ in range(m))
        with _header_values():
            montage = Montage(montage_id, names)
            _check_rate_and_scale(rate, scale)
        samples = _read(f, 4 * m * t, "sample payload").view("<f4")
    # The header is valid, so the one check left is the payload's scan: a
    # non-finite sample stays a ValidationError.
    return Recording(montage, rate, scale,
                     samples.astype(np.float32, copy=False).reshape(m, t))


# --- LCMC checkpoint I/O ----------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, destination: ByteSink) -> int:
    """Write a checkpoint in LCMC form; returns bytes written."""
    tensors = {tensor_name(group, name): t for group in _GROUP_PREFIXES
               for name, t in getattr(ckpt, group).items()}

    def parts():
        yield _LCMC_HEADER.pack(LCMC_MAGIC, LCMC_VERSION, ckpt.step)
        for name in sorted(tensors):
            # np.ascontiguousarray would promote 0-d tensors to 1-d
            tensor = np.asarray(tensors[name], dtype="<f4", order="C")
            yield _pack_str(name) + struct.pack(f"<B{tensor.ndim}I", tensor.ndim,
                                                *tensor.shape)
            yield tensor

    return _write(destination, parts())


def load_checkpoint(source: ByteSink) -> Checkpoint:
    """Parse an LCMC byte source back into a Checkpoint."""
    groups = {group: {} for group in _GROUP_PREFIXES}
    with _opened(source) as f:
        (step,) = _read_header(f, _LCMC_HEADER, LCMC_MAGIC, LCMC_VERSION)
        while (name := _read_str(f, "tensor name", at_end_ok=True)) is not None:
            (rank,) = struct.unpack("<B", _read(f, 1, "tensor rank"))
            dims = struct.unpack(f"<{rank}I", _read(f, 4 * rank, "tensor dims"))
            count = math.prod(dims)  # python ints: no int64 wrap-around
            data = _read(f, 4 * count, f"tensor {name!r} data").view("<f4")
            try:  # an empty tensor reads nothing, whatever its rank and dims
                data = data.astype(np.float32, copy=False).reshape(dims)
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
    with _header_values():
        return Checkpoint(step=step, **groups)


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
    with _opened(source) as f:
        n, m, t, rate, has_labels = _read_header(f, _LCMS_HEADER, LCMS_MAGIC,
                                                 LCMS_VERSION)
        if has_labels not in (0, 1):
            raise FormatError("header", f"has_labels byte is {has_labels}, expected 0 or 1")
        labels = None
        if has_labels:
            labels = _read(f, 2 * n, "labels").view("<u2").astype(np.int64)
        segments = _read(f, 4 * n * m * t, "segment payload").view("<f4")
    segments = segments.astype(np.float32, copy=False).reshape(n, m, t)
    with _header_values():
        batch = SegmentBatch(segments=segments, sample_rate_hz=rate, labels=labels)
    if not _all_finite(segments):
        raise ValidationError("segment payload contains non-finite samples")
    return batch
