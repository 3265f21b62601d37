"""Preprocessing DSP tests against frequency-response and arithmetic oracles."""

import numpy as np
import pytest
from scipy import signal as sps

from eegssl.data import Montage, Recording
from eegssl.errors import ValidationError
from eegssl.preprocess import (LOWPASS_ORDER, PreprocConfig, average_reference,
                               lowpass, preprocess, resample, segment)


def sine(freq, rate, seconds, amp=1.0):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def central(x):
    n = x.shape[-1]
    return x[..., n // 4: 3 * n // 4]


# --- average reference ---------------------------------------------------------

def test_identical_channels_cancel():
    x = np.tile(np.arange(8.0), (4, 1))
    np.testing.assert_allclose(average_reference(x), 0.0)


def test_zero_mean_input_unchanged():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 16))
    x -= x.mean(axis=0, keepdims=True)
    out = average_reference(x)
    np.testing.assert_allclose(out, x, rtol=1e-6, atol=1e-12)


def test_output_channel_mean_vanishes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 8)) * 5.0
    out = average_reference(x)
    rms = np.sqrt((x ** 2).mean())
    assert np.abs(out.mean(axis=0)).max() < 1e-6 * rms


def test_single_channel_rejected():
    with pytest.raises(ValidationError):
        average_reference(np.zeros((1, 10)))


# --- low-pass -------------------------------------------------------------------

def test_dc_gain_unity():
    x = np.full((1, 512), 3.0)
    y = lowpass(x, 256.0, 38.0)
    np.testing.assert_allclose(y, 3.0, rtol=1e-3)


def test_passband_10hz_within_10pct():
    y = lowpass(sine(10.0, 256.0, 4.0), 256.0, 38.0)
    amp = np.abs(central(y)).max()
    assert abs(amp - 1.0) < 0.1


def test_stopband_50hz_40db():
    y = lowpass(sine(50.0, 256.0, 4.0), 256.0, 38.0)
    amp = np.abs(central(y)).max()
    assert amp <= 0.01
    # frequency-response oracle on the designed filter (two passes)
    sos = sps.butter(LOWPASS_ORDER, 38.0, btype="low", fs=256.0, output="sos")
    _, h = sps.sosfreqz(sos, worN=[50.0], fs=256.0)
    assert np.abs(h[0]) ** 2 <= 0.01


def test_short_input_rejected():
    with pytest.raises(ValidationError):
        lowpass(np.zeros(3 * LOWPASS_ORDER), 256.0, 38.0)


def test_low_rate_rejected():
    with pytest.raises(ValidationError):
        lowpass(np.zeros(512), 76.0, 38.0)


def test_shape_preserved():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 300))
    assert lowpass(x, 256.0, 38.0).shape == (3, 300)


# --- resample --------------------------------------------------------------------

def test_downsample_length():
    x = np.zeros((2, 1024))
    assert resample(x, 512.0, 256.0).shape == (2, 512)


def test_identity_rate():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 100))
    np.testing.assert_allclose(resample(x, 256.0, 256.0), x, rtol=1e-6)


def test_20hz_peak_preserved():
    x = sine(20.0, 512.0, 2.0)
    y = resample(x, 512.0, 256.0)
    mags = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(y.shape[-1], 1.0 / 256.0)
    assert freqs[np.argmax(mags)] == pytest.approx(20.0)


def test_fractional_ratio_length():
    x = np.zeros(1000)
    y = resample(x, 250.0, 256.0)
    assert y.shape[-1] == int(np.floor(1000 * 256.0 / 250.0 + 1e-9))


def test_upsample_amplitude():
    y = resample(sine(20.0, 256.0, 2.0), 256.0, 512.0)
    assert abs(np.abs(central(y)).max() - 1.0) < 0.02


# --- segment ---------------------------------------------------------------------

def test_exact_fit():
    batch = segment(np.zeros((2, 1024)), 256.0, 4.0)
    assert batch.segments.shape == (1, 2, 1024)


def test_floor_rule_discards_tail():
    x = np.arange(2 * 2560, dtype=float).reshape(2, 2560)
    batch = segment(x, 256.0, 4.0)
    assert batch.segments.shape == (2, 2, 1024)
    np.testing.assert_allclose(batch.segments[0][0], x[0][:1024])
    np.testing.assert_allclose(batch.segments[1][1], x[1][1024:2048])


def test_too_short_rejected():
    with pytest.raises(ValidationError, match="shorter than one segment"):
        segment(np.zeros((2, 1000)), 256.0, 4.0)


def test_noninteger_segment_length_rejected():
    with pytest.raises(ValidationError):
        segment(np.zeros((2, 1000)), 256.0, 1.7)  # 435.2 samples


def test_segment_concatenate_left_inverse():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4 * 128)).astype(np.float32)
    batch = segment(x, 128.0, 1.0)
    glued = np.concatenate(list(batch.segments), axis=-1)
    rebuilt = np.concatenate([batch.segments[i] for i in range(len(batch))], axis=-1)
    np.testing.assert_array_equal(rebuilt, glued)
    np.testing.assert_allclose(glued, x, rtol=1e-6)


# --- full pipeline ----------------------------------------------------------------

def make_recording(m=8, rate=512.0, seconds=20.0, scale=1.0, seed=5):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((m, int(rate * seconds))).astype(np.float32)
    return Recording(Montage("test", tuple(f"c{i}" for i in range(m))),
                     rate, scale, samples)


def test_pipeline_shape_composition():
    # 20 s at 512 Hz -> resampled to 256 Hz = 5120 samples -> 5 segments of 1024
    batch = preprocess(make_recording(), PreprocConfig())
    assert batch.segments.shape == (5, 8, 1024)
    assert batch.sample_rate_hz == 256.0


def test_zero_recording_gives_zero_segments():
    rec = Recording(Montage("z", ("a", "b")), 512.0, 1.0,
                    np.zeros((2, 10240), np.float32))
    batch = preprocess(rec, PreprocConfig())
    np.testing.assert_allclose(batch.segments, 0.0, atol=1e-12)


def test_scale_to_mv_applied():
    rec = Recording(Montage("s", ("a", "b")), 512.0, 1e-3,
                    np.ones((2, 10240), np.float32))
    rec.samples[0] *= 3.0  # break channel symmetry so re-referencing keeps signal
    batch = preprocess(rec, PreprocConfig(apply_bandpass=False))
    # after scaling, channel values are 3e-3 and 1e-3; re-ref gives +-1e-3
    # (judge away from segment edges: the resampler ripples at boundaries)
    core = batch.segments[..., 100:-100]
    assert np.abs(core).max() == pytest.approx(1e-3, rel=0.05)
    assert np.median(np.abs(core)) == pytest.approx(1e-3, rel=0.01)


def test_channel_selection_missing_rejected():
    with pytest.raises(ValidationError, match="not present"):
        preprocess(make_recording(), PreprocConfig(channel_selection=("nope",)))


def test_channel_selection_subset():
    batch = preprocess(make_recording(),
                       PreprocConfig(channel_selection=("c0", "c3", "c7")))
    assert batch.segments.shape[1] == 3


def test_pipeline_deterministic():
    rec = make_recording()
    a = preprocess(rec, PreprocConfig())
    b = preprocess(rec, PreprocConfig())
    assert a.segments.tobytes() == b.segments.tobytes()


def test_config_invariant():
    with pytest.raises(ValidationError):
        PreprocConfig(target_rate_hz=64.0, lowpass_hz=38.0)
