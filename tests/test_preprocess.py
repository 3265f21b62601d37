"""Preprocessing DSP tests against frequency-response and arithmetic oracles."""

import hashlib
import importlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from eegssl.data import Montage, Recording
from eegssl.errors import ValidationError
from eegssl.preprocess import (LOWPASS_CHUNK, LOWPASS_ORDER, PreprocConfig, lowpass,
                               preprocess, resample)

# The module itself: the package binds the name `preprocess` to the function.
pp = importlib.import_module("eegssl.preprocess")


def sine(freq, rate, seconds, amp=1.0):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def central(x):
    n = x.shape[-1]
    return x[..., n // 4: 3 * n // 4]


def recording(x, rate=256.0, scale=1.0):
    x = np.asarray(x)
    return Recording(Montage("test", tuple(f"c{i}" for i in range(x.shape[0]))),
                     rate, scale, x)


def referenced(x, rate=256.0, segment_s=None):
    """preprocess with the rate kept and the low-pass off, so only the
    average reference, the segmentation and the float32 cast act on x."""
    segment_s = x.shape[-1] / rate if segment_s is None else segment_s
    cfg = PreprocConfig(target_rate_hz=rate, segment_s=segment_s, apply_bandpass=False)
    return preprocess(recording(x, rate), cfg).segments


def balanced(half):
    """Rows r0, -r0, r1, -r1, ...: every column sums to exactly 0 in channel
    order, so the average reference is 0 and leaves the rows as they are."""
    x = np.repeat(np.asarray(half, dtype=float), 2, axis=0)
    x[1::2] *= -1
    return x


# --- average reference ---------------------------------------------------------

def test_identical_channels_cancel():
    x = np.tile(np.arange(8.0), (4, 1))
    np.testing.assert_allclose(referenced(x)[0], 0.0)


def test_zero_mean_input_unchanged():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 16))
    x -= x.mean(axis=0, keepdims=True)
    out = referenced(x)[0]
    np.testing.assert_allclose(out, x, rtol=1e-6, atol=1e-12)


def test_output_channel_mean_vanishes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 8)) * 5.0
    out = referenced(x)[0]
    rms = np.sqrt((x ** 2).mean())
    assert np.abs(out.mean(axis=0, dtype=float)).max() < 1e-6 * rms


def test_single_channel_rejected():
    with pytest.raises(ValidationError):
        referenced(np.zeros((1, 10)))


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


def scipy_lowpass(x, rate, cutoff):
    """The zero-phase low-pass as one scipy call: the oracle for `lowpass`."""
    sos = sps.butter(LOWPASS_ORDER, cutoff, btype="low", fs=rate, output="sos")
    return sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=24)


# `lowpass` filters a row padded by 24 samples per edge, in chunks of
# LOWPASS_CHUNK samples: these lengths put the padded row just below, at and
# above one chunk, and at several chunks plus an odd remainder.
CHUNK_EDGES = [LOWPASS_CHUNK - 48 + k for k in (-1, 0, 1)] + [3 * LOWPASS_CHUNK + 77]


@settings(max_examples=20, deadline=None)
@given(t=st.one_of(st.integers(25, 200), st.sampled_from(CHUNK_EDGES),
                   st.integers(25, 4 * LOWPASS_CHUNK)),
       rows=st.sampled_from([(), (1,), (3,)]), seed=st.integers(0, 2 ** 16))
@example(t=25, rows=(), seed=0)
@example(t=LOWPASS_CHUNK - 1, rows=(2,), seed=1)
@example(t=LOWPASS_CHUNK, rows=(), seed=2)
@example(t=LOWPASS_CHUNK + 1, rows=(2,), seed=3)
@example(t=3 * LOWPASS_CHUNK + 77, rows=(3,), seed=4)
def test_lowpass_matches_sosfiltfilt_bitwise(t, rows, seed):
    x = np.random.default_rng(seed).standard_normal(rows + (t,)) * 40.0
    y = lowpass(x, 500.0, 38.0)
    assert y.shape == x.shape
    assert y.tobytes() == scipy_lowpass(x, 500.0, 38.0).tobytes()


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


def test_nearly_equal_rates_copy():
    # 256 / 256.00001 Hz rounds to the ratio 1/1: the samples are kept, cut
    # to floor(T * to_hz / from_hz)
    x = np.arange(100.0)
    np.testing.assert_array_equal(resample(x, 256.00001, 256.0), x[:99])


def test_fractional_ratio_length():
    x = np.zeros(1000)
    y = resample(x, 250.0, 256.0)
    assert y.shape[-1] == int(np.floor(1000 * 256.0 / 250.0 + 1e-9))


def test_upsample_amplitude():
    y = resample(sine(20.0, 256.0, 2.0), 256.0, 512.0)
    assert abs(np.abs(central(y)).max() - 1.0) < 0.02


# --- segment ---------------------------------------------------------------------

def test_exact_fit():
    assert referenced(np.zeros((2, 1024)), segment_s=4.0).shape == (1, 2, 1024)


def test_floor_rule_discards_tail():
    x = balanced([np.arange(2560.0)])
    segments = referenced(x, segment_s=4.0)
    assert segments.shape == (2, 2, 1024)
    np.testing.assert_allclose(segments[0][0], x[0][:1024])
    np.testing.assert_allclose(segments[1][1], x[1][1024:2048])


def test_too_short_rejected():
    with pytest.raises(ValidationError, match="shorter than one segment"):
        referenced(np.zeros((2, 1000)), segment_s=4.0)


def test_noninteger_segment_length_rejected():
    with pytest.raises(ValidationError):
        referenced(np.zeros((2, 1000)), segment_s=1.7)  # 435.2 samples


def test_segment_concatenate_left_inverse():
    rng = np.random.default_rng(4)
    x = balanced(rng.standard_normal((2, 4 * 128)).astype(np.float32))
    segments = referenced(x, rate=128.0, segment_s=1.0)
    glued = np.concatenate(list(segments), axis=-1)
    rebuilt = np.concatenate([segments[i] for i in range(len(segments))], axis=-1)
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


# --- channel by channel, against the whole matrix -----------------------------------

def whole_matrix_preprocess(rec, cfg):
    """The pipeline on the whole (M, T) float64 matrix, filtered by scipy's
    `sosfiltfilt` itself: the reference that `preprocess`, which runs one
    channel at a time, must match byte for byte."""
    x = np.asarray(rec.samples, dtype=float)
    if cfg.channel_selection is not None:
        x = x[[rec.montage.channel_names.index(c) for c in cfg.channel_selection]]
    x = x * rec.scale_to_mV
    x = x - x.mean(axis=0, keepdims=True)
    if cfg.apply_bandpass:
        x = scipy_lowpass(x, rec.sample_rate_hz, cfg.lowpass_hz)
    x = resample(x, rec.sample_rate_hz, cfg.target_rate_hz)
    length = int(round(cfg.segment_s * cfg.target_rate_hz))
    m, n = x.shape[0], x.shape[1] // length
    return np.ascontiguousarray(
        x[:, :n * length].reshape(m, n, length).transpose(1, 0, 2), dtype=np.float32)


@pytest.mark.parametrize("m, rate, cfg", [
    (8, 500.0, PreprocConfig()),
    (8, 500.0, PreprocConfig(channel_selection=("c5", "c0", "c3"))),
    (8, 500.0, PreprocConfig(apply_bandpass=False)),
    (8, 250.0, PreprocConfig()),                   # 250 -> 256 Hz upsampling
    (21, 500.0, PreprocConfig()),
    (8, 500.0, PreprocConfig(segment_s=2.0)),
    (4, 256.0, PreprocConfig()),                   # no rate change
], ids=["default", "selection", "no-bandpass", "upsample", "21-channels",
        "segment-2s", "same-rate"])
def test_matches_whole_matrix_pipeline_bytewise(m, rate, cfg):
    rec = make_recording(m=m, rate=rate, seconds=13.0, scale=2e-3)
    assert preprocess(rec, cfg).segments.tobytes() == \
        whole_matrix_preprocess(rec, cfg).tobytes()


def test_segment_bytes_pinned():
    rng = np.random.default_rng(5)
    rec = recording(rng.standard_normal((8, 10000)).astype(np.float32), 500.0, 1e-3)
    digest = hashlib.sha256(preprocess(rec, PreprocConfig()).segments.tobytes())
    assert digest.hexdigest() == \
        "6a049d698baf68c26a2619da7a3f304fbbb439ab2696458adc38d9b053933f3f"


@pytest.mark.parametrize("m", [4, 16])
def test_working_memory_is_a_few_channel_rows(m):
    # Besides its float32 output, preprocess holds a few float64 rows of one
    # channel's length, however many channels there are.
    preprocess(make_recording(m=2, rate=500.0, seconds=8.0), PreprocConfig())  # filter designs
    rec = make_recording(m=m, rate=500.0, seconds=60.0)
    tracemalloc.start()
    try:
        batch = preprocess(rec, PreprocConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (peak - batch.segments.nbytes) / (8 * rec.n_samples)
    assert rows <= 8, f"{rows:.1f} float64 channel rows"


def test_working_memory_of_two_workers():
    # The reference row, plus one padded row and one resampled row for each
    # of the two channels in flight: about 1 + 2 x (1 + 0.51) rows, and the
    # filter's chunks on top.
    preprocess(make_recording(m=2, rate=500.0, seconds=8.0), PreprocConfig())  # filter designs
    rec = make_recording(m=8, rate=500.0, seconds=600.0)
    tracemalloc.start()
    try:
        batch = preprocess(rec, PreprocConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (peak - batch.segments.nbytes) / (8 * rec.n_samples)
    assert rows <= 4.5, f"{rows:.2f} float64 channel rows"


# --- worker threads -----------------------------------------------------------------

@pytest.mark.parametrize("m, cfg", [
    (8, PreprocConfig()),
    (21, PreprocConfig()),
    (8, PreprocConfig(channel_selection=("c6", "c1", "c4"))),
    (8, PreprocConfig(apply_bandpass=False, segment_s=2.0)),
], ids=["default", "21-channels", "selection", "no-bandpass"])
def test_bytes_independent_of_worker_count(monkeypatch, m, cfg):
    rec = make_recording(m=m, rate=500.0, seconds=13.0, scale=2e-3)
    assert pp.WORKERS == 2
    two = preprocess(rec, cfg).segments.tobytes()
    monkeypatch.setattr(pp, "WORKERS", 1)
    assert preprocess(rec, cfg).segments.tobytes() == two


def test_bytes_under_many_workers_and_fast_thread_switches(monkeypatch):
    # More workers than cores, switching threads every microsecond: a write
    # that landed in another channel's slice would change the bytes.
    rec = make_recording(m=21, rate=500.0, seconds=13.0, scale=2e-3)
    two = preprocess(rec, PreprocConfig()).segments.tobytes()
    monkeypatch.setattr(pp, "WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = preprocess(rec, PreprocConfig()).segments.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert many == two


def test_channel_error_surfaces_and_workers_end(monkeypatch):
    calls, lock = [], threading.Lock()

    def failing_third(x, from_hz, to_hz):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise ValidationError("third channel fails")
        return resample(x, from_hz, to_hz)

    monkeypatch.setattr(pp, "resample", failing_third)
    rec = make_recording(m=16, rate=500.0, seconds=60.0)
    threads = threading.active_count()
    with pytest.raises(ValidationError, match="third channel fails"):
        preprocess(rec, PreprocConfig())
    assert threading.active_count() == threads
    assert len(calls) < 16  # the queued channels were dropped


def test_bad_rate_fails_before_channel_work(monkeypatch):
    # Recording rates whose resampling ratio needs a factor above 2**14 are
    # rejected, naming both rates, before any channel is filtered or
    # resampled; so is a recording shorter than the filter's warm-up.
    monkeypatch.setattr(pp, "resample", None)
    monkeypatch.setattr(pp, "_filtfilt_padded", None)
    for rate in (1e-300, 256.0 / 3.00007):  # 256 / 85.33 Hz is 42859/14286
        rec = make_recording(m=2, rate=512.0, seconds=2.0)
        rec.sample_rate_hz = rate
        for bandpass in (True, False):
            with pytest.raises(ValidationError, match=f"{rate} Hz to 256.0 Hz"):
                preprocess(rec, PreprocConfig(apply_bandpass=bandpass))
    rec = make_recording(m=2, rate=500.0, seconds=0.04)  # 20 samples
    with pytest.raises(ValidationError, match="warm-up"):
        preprocess(rec, PreprocConfig(segment_s=1 / 256))
