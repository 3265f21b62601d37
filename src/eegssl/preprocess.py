"""Recording preprocessing: re-reference, low-pass, resample, segment.

Pipeline order is fixed: channel selection -> millivolt scaling -> average
reference -> low-pass (optional) -> resample -> segmentation.

The "0-38 Hz bandpass" is realized as a zero-phase Butterworth low-pass
(forward-backward). Order 8 is required to push the 256 Hz / 50 Hz stopband
past 40 dB; order 4 only reaches ~24 dB after both passes. The two passes
run in place on one row padded with its even extension, in time chunks that
carry the filter state from chunk to chunk, so they give the same bits as
`scipy.signal.sosfiltfilt(..., padtype="even", padlen=PADLEN)`.

Memory and threads: after the average reference, every step acts on one
channel row alone, so `preprocess` runs the channels on a pool of WORKERS
threads (scipy's filter and resampler release the GIL) and each writes its
result straight into its own slice of the float32 (n, M, L) segment array.
Besides the float32 recording it reads and that output, it holds the
float64 reference row plus, per worker, one padded row and one resampled
row, however many channels there are. A 1 h, 8-channel, 500 Hz recording is
57.6 MB of float32 samples and gives 29.5 MB of segments; its rows are
14.4 MB (7.4 MB resampled to 256 Hz), so the rows need about 58 MB.
"""

from __future__ import annotations

import functools
import math
from concurrent import futures
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import signal

from .data import Recording, SegmentBatch
from .errors import ValidationError

LOWPASS_ORDER = 8
PADLEN = 3 * LOWPASS_ORDER  # even-extension samples per edge
LOWPASS_CHUNK = 1 << 14     # samples per filter call within one pass
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6
MAX_RESAMPLE_FACTOR = 1 << 14  # bound on the resampler's up and down factors
WORKERS = 2  # channels preprocessed at once


@dataclass(frozen=True)
class PreprocConfig:
    target_rate_hz: float = 256.0
    segment_s: float = 4.0
    lowpass_hz: float = 38.0
    apply_bandpass: bool = True
    channel_selection: Optional[tuple] = None

    def __post_init__(self):
        if not (self.target_rate_hz > 0 and self.segment_s > 0 and self.lowpass_hz > 0):
            raise ValidationError("rates and segment length must be positive")
        if not (self.lowpass_hz < self.target_rate_hz / 2.0):
            raise ValidationError("lowpass_hz must be below the target Nyquist rate")
        if self.channel_selection is not None:
            object.__setattr__(self, "channel_selection", tuple(self.channel_selection))
            for i, name in enumerate(self.channel_selection):
                if name in self.channel_selection[:i]:
                    raise ValidationError(f"channel_selection repeats {name!r}")


# Filter designs, built once per rate and shared by every call: preprocess
# builds them before its workers start, and scipy only reads them.
@functools.lru_cache(maxsize=16)
def _lowpass_design(rate_hz: float, cutoff_hz: float) -> tuple:
    """(sos, zi): the Butterworth sections and their unit-step initial state."""
    sos = signal.butter(LOWPASS_ORDER, cutoff_hz, btype="low", fs=rate_hz,
                        output="sos")
    return sos, signal.sosfilt_zi(sos)


@functools.lru_cache(maxsize=16)
def _resample_prototype(max_rate: int) -> np.ndarray:
    n_taps = RESAMPLE_TAPS_PER_PHASE * max_rate + 1
    return signal.firwin(n_taps, 1.0 / max_rate, window=("kaiser", RESAMPLE_KAISER_BETA))


def _check_lowpass(rate_hz: float, cutoff_hz: float, n_samples: int) -> None:
    if not (rate_hz > 2.0 * cutoff_hz):
        raise ValidationError(
            f"sample rate {rate_hz} Hz too low for a {cutoff_hz} Hz low-pass")
    if n_samples <= PADLEN:
        raise ValidationError(
            f"recording shorter than filter warm-up length ({PADLEN + 1} samples)")


def _filtfilt_padded(buf: np.ndarray, rate_hz: float, cutoff_hz: float) -> None:
    """Zero-phase low-pass, in place, of the rows of `buf` (..., PADLEN + T +
    PADLEN) whose middle T samples hold the signal.

    Writes the even extension into the edges, then runs the forward pass and
    the backward pass over `buf` in chunks of LOWPASS_CHUNK samples. Each
    chunk starts from the state the previous one ended in, and each pass
    from the unit-step state times its first sample, as `sosfiltfilt` does;
    the filter's recursion is per sample, so the bits are the same.
    """
    p, t = PADLEN, buf.shape[-1] - 2 * PADLEN
    buf[..., :p] = buf[..., 2 * p:p:-1]
    buf[..., p + t:] = buf[..., p + t - 2:t - 2:-1]
    sos, zi = _lowpass_design(rate_hz, cutoff_hz)
    zi = zi.reshape((len(sos),) + (1,) * (buf.ndim - 1) + (2,))
    for view in (buf, buf[..., ::-1]):
        state = zi * view[..., :1]
        for start in range(0, view.shape[-1], LOWPASS_CHUNK):
            chunk = view[..., start:start + LOWPASS_CHUNK]
            out, state = signal.sosfilt(sos, chunk, zi=state)
            chunk[...] = out


def lowpass(x: np.ndarray, rate_hz: float, cutoff_hz: float) -> np.ndarray:
    """Zero-phase low-pass along the last axis; output shape equals input shape."""
    x = np.asarray(x, dtype=float)
    _check_lowpass(rate_hz, cutoff_hz, x.shape[-1])
    buf = np.empty(x.shape[:-1] + (x.shape[-1] + 2 * PADLEN,))
    buf[..., PADLEN:-PADLEN] = x
    _filtfilt_padded(buf, rate_hz, cutoff_hz)
    return buf[..., PADLEN:-PADLEN]


def _resample_factors(from_hz: float, to_hz: float) -> tuple:
    """(up, down) of the rational ratio to_hz / from_hz, each at most
    MAX_RESAMPLE_FACTOR."""
    if not (from_hz > 0 and to_hz > 0):
        raise ValidationError("sample rates must be positive")
    ratio = to_hz / from_hz
    up = down = 0
    if math.isfinite(ratio):
        fraction = Fraction(ratio).limit_denominator(MAX_RESAMPLE_FACTOR)
        up, down = fraction.numerator, fraction.denominator
    if not 1 <= up <= MAX_RESAMPLE_FACTOR:
        raise ValidationError(
            f"cannot resample {from_hz} Hz to {to_hz} Hz with up and down "
            f"factors of at most {MAX_RESAMPLE_FACTOR}")
    return up, down


def _resampled_length(t: int, from_hz: float, to_hz: float) -> int:
    return int(np.floor(t * to_hz / from_hz + 1e-9))


def resample(x: np.ndarray, from_hz: float, to_hz: float) -> np.ndarray:
    """Rational polyphase resampling with a Kaiser windowed-sinc prototype.

    Output length is floor(T * to_hz / from_hz).
    """
    up, down = _resample_factors(from_hz, to_hz)
    x = np.asarray(x, dtype=float)
    if up == down:  # rates equal, or too close for a ratio other than 1/1
        y = x.copy()
    else:
        y = signal.resample_poly(x, up, down, axis=-1,
                                 window=_resample_prototype(max(up, down)))
    target = _resampled_length(x.shape[-1], from_hz, to_hz)
    if y.shape[-1] < target:
        raise ValidationError("resampling ratio approximation produced too few samples")
    return y[..., :target]


def _segment_grid(t: int, rate_hz: float, segment_s: float) -> tuple:
    """(count, length) of the non-overlapping segments of segment_s that fit
    in t samples at rate_hz; the remainder is discarded."""
    length = segment_s * rate_hz
    l_int = int(round(length))
    if l_int < 1 or abs(length - l_int) > 1e-9:
        raise ValidationError(
            f"segment_s * rate_hz must be a positive integer, got {length}")
    if t < l_int:
        raise ValidationError("recording shorter than one segment")
    return t // l_int, l_int


def preprocess(rec: Recording, cfg: PreprocConfig) -> SegmentBatch:
    """Full pipeline from a Recording to fixed-length float32 segments."""
    names = rec.montage.channel_names
    indices = []
    for name in names if cfg.channel_selection is None else cfg.channel_selection:
        if name not in names:
            raise ValidationError(f"channel {name!r} not present in montage")
        indices.append(names.index(name))
    if len(indices) < 2:
        raise ValidationError("average reference needs at least 2 channels")
    # Every check, and every filter design, before any channel work.
    rate, target, t = rec.sample_rate_hz, cfg.target_rate_hz, rec.n_samples
    up, down = _resample_factors(rate, target)
    pad = PADLEN if cfg.apply_bandpass else 0
    if cfg.apply_bandpass:
        _check_lowpass(rate, cfg.lowpass_hz, t)
        _lowpass_design(rate, cfg.lowpass_hz)
    if up != down:
        _resample_prototype(max(up, down))
    n, length = _segment_grid(_resampled_length(t, rate, target),
                              target, cfg.segment_s)

    def scaled(i: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.multiply(rec.samples[i], rec.scale_to_mV, out=out, dtype=float)

    # The cross-channel mean, summed in channel order as mean(axis=0) does.
    reference = scaled(indices[0])
    for i in indices[1:]:
        reference += scaled(i)
    reference /= len(indices)

    segments = np.empty((n, len(indices), length), dtype=np.float32)

    def channel(row: int, i: int) -> None:
        buf = np.empty(pad + t + pad)
        x = scaled(i, out=buf[pad:pad + t])
        x -= reference
        if cfg.apply_bandpass:
            _filtfilt_padded(buf, rate, cfg.lowpass_hz)
        x = resample(x, rate, target)
        segments[:, row, :] = x[:n * length].reshape(n, length)

    # Each channel writes its own slice with the same code on any thread, so
    # the bytes do not depend on scheduling. The first error in channel
    # order is raised once the running channels end; queued ones are dropped.
    pool = futures.ThreadPoolExecutor(WORKERS, thread_name_prefix="preprocess")
    try:
        jobs = [pool.submit(channel, row, i) for row, i in enumerate(indices)]
        futures.wait(jobs, return_when=futures.FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    for job in jobs:
        if not job.cancelled():
            job.result()
    return SegmentBatch(segments=segments, sample_rate_hz=target)
