"""Deterministic synthetic EEG so the pipeline is testable without real data.

Background noise is synthesized in the frequency domain (random phases,
1/f^alpha magnitudes, unit RMS per channel) and inverse-transformed, which
gives exact spectral control. Oscillations are pure sinusoids added on top.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Montage, Recording, SegmentBatch
from .errors import ValidationError
from .seeding import TAG_BACKGROUND, TAG_SEGMENT, make_rng


@dataclass(frozen=True)
class Oscillation:
    frequency_hz: float
    amplitude: float
    channels: Optional[tuple] = None  # None = all channels


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    channel_count: int
    duration_s: float
    sample_rate_hz: float
    background_exponent: Optional[float] = 1.0  # None disables background noise
    oscillations: tuple = ()

    def __post_init__(self):
        if self.channel_count < 1:
            raise ValidationError("channel_count must be positive")
        if not (self.duration_s > 0):
            raise ValidationError("duration_s must be positive")
        if not (self.sample_rate_hz > 0):
            raise ValidationError("sample_rate_hz must be positive")
        # _render holds channel_count x n_samples float64 values; a float
        # product, so an infinite duration fails here too
        needed = self.channel_count * self.duration_s * self.sample_rate_hz * 8
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if not (needed <= memory):
            raise ValidationError(
                f"duration_s={self.duration_s} needs {needed:.3g} bytes of float64 "
                f"samples, more than the {memory} bytes of physical memory")
        oscs = tuple(
            o if isinstance(o, Oscillation) else Oscillation(*o)
            for o in self.oscillations)
        object.__setattr__(self, "oscillations", oscs)
        nyquist = self.sample_rate_hz / 2.0
        for osc in oscs:
            for field in ("frequency_hz", "amplitude"):
                value = getattr(osc, field)
                if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                        or not math.isfinite(value)):
                    raise ValidationError(
                        f"oscillation {field} must be a finite number, got {value!r}")
            if osc.frequency_hz >= nyquist:
                raise ValidationError(
                    f"oscillation at {osc.frequency_hz} Hz is at or above the "
                    f"Nyquist rate {nyquist} Hz")
            if osc.amplitude < 0:
                raise ValidationError("oscillation amplitude must be >= 0")
            if osc.channels is not None:
                for ch in osc.channels:
                    if isinstance(ch, bool) or not isinstance(ch, numbers.Integral):
                        raise ValidationError(
                            f"oscillation channel {ch!r} must be an integer index")
                    if not (0 <= ch < self.channel_count):
                        raise ValidationError(f"oscillation channel {ch} out of range")

    @property
    def n_samples(self) -> int:
        return max(1, int(round(self.duration_s * self.sample_rate_hz)))


def _background_channel(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    """Unit-RMS noise with amplitude spectrum proportional to 1/f^exponent."""
    n_bins = n // 2 + 1
    mags = np.zeros(n_bins)
    k = np.arange(1, n_bins)
    mags[1:] = k.astype(float) ** (-exponent)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_bins - 1)
    spectrum = np.zeros(n_bins, dtype=complex)
    spectrum[1:] = mags[1:] * np.exp(1j * phases)
    if n % 2 == 0:
        spectrum[-1] = 0.0  # keep irfft exactly real
    x = np.fft.irfft(spectrum, n=n)
    rms = np.sqrt(np.mean(x * x))
    if rms > 0:
        x = x / rms
    return x


def _render(spec: SynthSpec, rng_key: Sequence[int]) -> np.ndarray:
    """One (M, T) float32 block: background noise plus the spec's oscillations."""
    m, n = spec.channel_count, spec.n_samples
    x = np.zeros((m, n))
    if spec.background_exponent is not None:
        for ch in range(m):
            rng = make_rng(*rng_key, TAG_BACKGROUND, ch)
            x[ch] = _background_channel(rng, n, spec.background_exponent)
    t = np.arange(n) / spec.sample_rate_hz
    for osc in spec.oscillations:
        if osc.amplitude == 0:
            continue
        wave = osc.amplitude * np.sin(2.0 * np.pi * osc.frequency_hz * t)
        channels = range(m) if osc.channels is None else osc.channels
        for ch in channels:
            x[ch] += wave
    return x.astype(np.float32)


def synth_recording(spec: SynthSpec, scale_to_mV: float = 1.0) -> Recording:
    """Render the spec to a Recording; identical spec gives identical bytes."""
    samples = _render(spec, (spec.seed,))
    montage = Montage("synthetic", tuple(f"ch{i}" for i in range(spec.channel_count)))
    return Recording(montage, spec.sample_rate_hz, scale_to_mV, samples)


def synth_labeled_dataset(spec: SynthSpec, classes: int, per_class: int,
                          band_hz: tuple = (8.0, 12.0),
                          power_ratio: float = 4.0) -> SegmentBatch:
    """Two-class segments where class 1 carries `power_ratio` times the
    band-limited power of class 0 in `band_hz`.

    Each segment gets its own RNG stream keyed by (seed, index), so parallel
    generation is order-independent. Labels alternate 0,1,0,1,... which keeps
    them exactly balanced.
    """
    if classes != 2:
        raise ValidationError("only two-class synthesis is supported")
    if per_class < 1:
        raise ValidationError("per_class must be >= 1")
    if not (power_ratio > 1):
        raise ValidationError("power_ratio must be > 1")
    lo, hi = float(band_hz[0]), float(band_hz[1])
    if not (0 < lo < hi < spec.sample_rate_hz / 2.0):
        raise ValidationError("band_hz must lie strictly inside (0, Nyquist)")

    # Phase-locked tone at the band center: with random phase per segment the
    # class means coincide after token pooling and only higher moments differ.
    tone_hz = 0.5 * (lo + hi)
    base_amplitude = 1.0
    n_total = 2 * per_class
    t = np.arange(spec.n_samples) / spec.sample_rate_hz
    tone = np.sin(2.0 * np.pi * tone_hz * t)
    segments = []
    labels = []
    for i in range(n_total):
        label = i % 2
        amplitude = base_amplitude * (np.sqrt(power_ratio) if label == 1 else 1.0)
        x = _render(spec, (spec.seed, TAG_SEGMENT, i))
        x = x + (amplitude * tone).astype(np.float32)
        segments.append(x.astype(np.float32))
        labels.append(label)
    return SegmentBatch(
        segments=np.stack(segments),
        sample_rate_hz=spec.sample_rate_hz,
        labels=np.asarray(labels, dtype=np.int64))
