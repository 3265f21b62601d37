"""Recording preprocessing: re-reference, low-pass, resample, segment.

Pipeline order is fixed: channel selection -> millivolt scaling -> average
reference -> low-pass (optional) -> resample -> segmentation.

The "0-38 Hz bandpass" is realized as a zero-phase Butterworth low-pass
(forward-backward). Order 8 is required to push the 256 Hz / 50 Hz stopband
past 40 dB; order 4 only reaches ~24 dB after both passes.
"""

from __future__ import annotations

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


def average_reference(x: np.ndarray) -> np.ndarray:
    """Subtract the cross-channel mean at every timestep."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValidationError("expected a (channels, time) matrix")
    if x.shape[0] < 2:
        raise ValidationError("average reference needs at least 2 channels")
    return x - x.mean(axis=0, keepdims=True)


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
    sos = signal.butter(LOWPASS_ORDER, cutoff_hz, btype="low", fs=rate_hz, output="sos")
    return signal.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=padlen)


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
    max_rate = max(up, down)
    n_taps = RESAMPLE_TAPS_PER_PHASE * max_rate + 1
    proto = signal.firwin(n_taps, 1.0 / max_rate, window=("kaiser", RESAMPLE_KAISER_BETA))
    y = signal.resample_poly(x, up, down, axis=-1, window=proto)
    target = int(np.floor(x.shape[-1] * to_hz / from_hz + 1e-9))
    if y.shape[-1] < target:
        raise ValidationError("resampling ratio approximation produced too few samples")
    return y[..., :target]


def segment(x: np.ndarray, rate_hz: float, segment_s: float) -> SegmentBatch:
    """Cut into non-overlapping segments of segment_s; remainder discarded."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValidationError("expected a (channels, time) matrix")
    length = segment_s * rate_hz
    l_int = int(round(length))
    if l_int < 1 or abs(length - l_int) > 1e-9:
        raise ValidationError(
            f"segment_s * rate_hz must be a positive integer, got {length}")
    m, t = x.shape
    if t < l_int:
        raise ValidationError("recording shorter than one segment")
    n = t // l_int
    segments = x[:, :n * l_int].reshape(m, n, l_int).transpose(1, 0, 2)
    return SegmentBatch(segments=np.ascontiguousarray(segments, dtype=np.float32),
                        sample_rate_hz=rate_hz)


def preprocess(rec: Recording, cfg: PreprocConfig) -> SegmentBatch:
    """Full pipeline from a Recording to fixed-length segments."""
    x = np.asarray(rec.samples, dtype=float)
    if cfg.channel_selection is not None:
        indices = []
        for name in cfg.channel_selection:
            if name not in rec.montage.channel_names:
                raise ValidationError(f"channel {name!r} not present in montage")
            indices.append(rec.montage.channel_names.index(name))
        x = x[indices]
    x = x * rec.scale_to_mV
    x = average_reference(x)
    if cfg.apply_bandpass:
        x = lowpass(x, rec.sample_rate_hz, cfg.lowpass_hz)
    x = resample(x, rec.sample_rate_hz, cfg.target_rate_hz)
    return segment(x, cfg.target_rate_hz, cfg.segment_s)
