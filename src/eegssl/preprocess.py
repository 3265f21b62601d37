"""Recording preprocessing: re-reference, low-pass, resample, segment.

Pipeline order is fixed: channel selection -> millivolt scaling -> average
reference -> low-pass (optional) -> resample -> segmentation.

The "0-38 Hz bandpass" is realized as a zero-phase Butterworth low-pass
(forward-backward). Order 8 is required to push the 256 Hz / 50 Hz stopband
past 40 dB; order 4 only reaches ~24 dB after both passes.

Memory: after the average reference, every step acts on one channel row
alone, so `preprocess` runs one channel at a time and writes each result
straight into the float32 (n, M, L) segment array. Besides the float32
recording it reads and that output, it holds about 5 float64 rows of one
channel's length (the reference, the row, and the filter's and resampler's
working copies), however many channels there are. A 1 h, 8-channel, 500 Hz
recording is 57.6 MB of float32 samples, gives 29.5 MB of segments and
needs about 72 MB of rows (14.4 MB each).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import signal

from .data import Recording, SegmentBatch
from .errors import ValidationError

LOWPASS_ORDER = 8
PAD_MULTIPLE = 3  # reflect padding of PAD_MULTIPLE * order samples per edge
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6


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


# Filter designs, built once per rate and shared by every call: preprocess
# filters one channel at a time, and scipy only reads them.
@functools.lru_cache(maxsize=16)
def _lowpass_sos(rate_hz: float, cutoff_hz: float) -> np.ndarray:
    return signal.butter(LOWPASS_ORDER, cutoff_hz, btype="low", fs=rate_hz,
                         output="sos")


@functools.lru_cache(maxsize=16)
def _resample_prototype(max_rate: int) -> np.ndarray:
    n_taps = RESAMPLE_TAPS_PER_PHASE * max_rate + 1
    return signal.firwin(n_taps, 1.0 / max_rate, window=("kaiser", RESAMPLE_KAISER_BETA))


def lowpass(x: np.ndarray, rate_hz: float, cutoff_hz: float) -> np.ndarray:
    """Zero-phase low-pass along the last axis; output shape equals input shape."""
    if not (rate_hz > 2.0 * cutoff_hz):
        raise ValidationError(
            f"sample rate {rate_hz} Hz too low for a {cutoff_hz} Hz low-pass")
    x = np.asarray(x, dtype=float)
    padlen = PAD_MULTIPLE * LOWPASS_ORDER
    if x.shape[-1] <= padlen:
        raise ValidationError(
            f"recording shorter than filter warm-up length ({padlen + 1} samples)")
    return signal.sosfiltfilt(_lowpass_sos(rate_hz, cutoff_hz), x, axis=-1,
                              padtype="even", padlen=padlen)


def _resampled_length(t: int, from_hz: float, to_hz: float) -> int:
    return int(np.floor(t * to_hz / from_hz + 1e-9))


def resample(x: np.ndarray, from_hz: float, to_hz: float) -> np.ndarray:
    """Rational polyphase resampling with a Kaiser windowed-sinc prototype.

    Output length is floor(T * to_hz / from_hz).
    """
    if not (from_hz > 0 and to_hz > 0):
        raise ValidationError("sample rates must be positive")
    x = np.asarray(x, dtype=float)
    if from_hz == to_hz:
        return x.copy()
    ratio = Fraction(to_hz / from_hz).limit_denominator(1 << 14)
    up, down = ratio.numerator, ratio.denominator
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

    def scaled(i: int) -> np.ndarray:
        return np.asarray(rec.samples[i], dtype=float) * rec.scale_to_mV

    # The cross-channel mean, summed in channel order as mean(axis=0) does.
    reference = scaled(indices[0])
    for i in indices[1:]:
        reference += scaled(i)
    reference /= len(indices)

    rate, target = rec.sample_rate_hz, cfg.target_rate_hz
    n, length = _segment_grid(_resampled_length(rec.n_samples, rate, target),
                              target, cfg.segment_s)
    segments = np.empty((n, len(indices), length), dtype=np.float32)
    for row, i in enumerate(indices):
        x = scaled(i)
        x -= reference
        if cfg.apply_bandpass:
            x = lowpass(x, rate, cfg.lowpass_hz)
        x = resample(x, rate, target)
        segments[:, row, :] = x[:n * length].reshape(n, length)
    return SegmentBatch(segments=segments, sample_rate_hz=target)
