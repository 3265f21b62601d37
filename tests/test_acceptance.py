"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The pretraining fixture (criteria 6 and 7) takes about a minute on 2
vCPUs; everything else is fast.
"""

import io
import time

import numpy as np
import pytest

from eegssl import autodiff as ad
from eegssl.config import RunConfig, TrainConfig
from eegssl.data import (Recording, SegmentBatch, default_montage,
                         load_checkpoint, read_recording, save_checkpoint,
                         write_recording)
from eegssl.encoder import (EncoderConfig, forward_tokens, init_param_store,
                            patch_grid, predict_patches, wrap_constants)
from eegssl.errors import FormatError, ValidationError
from eegssl.evaluate import FeatureSet, compute_metrics, extract_features, \
    fit_probe, predict_scores
from eegssl.losses import alignment_loss_t, reconstruction_loss_t
from eegssl.optim import ScheduleConfig, ema_update, lr_at, wd_at
from eegssl.preprocess import PreprocConfig, lowpass, preprocess, resample
from eegssl.seeding import make_rng
from eegssl.synth import SynthSpec, synth_labeled_dataset, synth_recording
from eegssl.trainer import (batch_mask, grad_check, init_checkpoint,
                            run_pretraining)

GRADCHECK_CFG = EncoderConfig(d=16, layers=2, heads=4, mlp_ratio=4.0, p_t=8,
                              in_channels=4, mapped_channels=4, n_t=4,
                              stem_kernel=7)

ACCEPT_ENC = EncoderConfig(d=32, layers=2, heads=4, mlp_ratio=4.0, p_t=64,
                           in_channels=8, mapped_channels=8, n_t=16,
                           stem_kernel=7)
ACCEPT_SCHEDULE = ScheduleConfig(lr_max=2e-3, warmup_epochs=2)
ACCEPT_SEED = 11

CORPUS_SPEC = SynthSpec(
    seed=7, channel_count=8, duration_s=2048.0, sample_rate_hz=256.0,
    background_exponent=1.0,
    oscillations=((10.0, 4.0, (0, 1, 2, 3)), (22.0, 3.0, (4, 5, 6, 7))))

PROBE_SPEC = SynthSpec(seed=23, channel_count=8, duration_s=4.0,
                       sample_rate_hz=256.0, background_exponent=1.0)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="session")
def corpus():
    rec = synth_recording(CORPUS_SPEC, scale_to_mV=1.0)
    batch = preprocess(rec, PreprocConfig())
    assert batch.segments.shape == (512, 8, 1024)   # 512 four-second segments
    return batch


@pytest.fixture(scope="session")
def pretrain_result(corpus):
    cfg = RunConfig(seed=ACCEPT_SEED, encoder=ACCEPT_ENC, schedule=ACCEPT_SCHEDULE,
                    train=TrainConfig(batch_size=64, epochs=20, p_mask=0.5, lam=1.0))
    start = time.perf_counter()
    ckpt, records = run_pretraining(cfg, corpus)
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "ckpt": ckpt, "records": records, "elapsed": elapsed}


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    result = grad_check(RunConfig(encoder=GRADCHECK_CFG))
    elapsed = time.perf_counter() - start
    assert result.max_rel_error < 1e-4
    assert elapsed < 60.0
    report(1, f"gradcheck max rel error {result.max_rel_error:.2e} < 1e-4 "
              f"in {elapsed:.1f}s")


def test_criterion_02_schedule_exactness():
    cfg = ScheduleConfig(lr_max=1.5e-4, lr_final=1e-6, warmup_epochs=10)
    spe, epochs = 7, 200  # the run's steps per epoch and epochs
    T, W = epochs * spe, cfg.warmup_epochs * spe
    assert lr_at(0, cfg, spe, epochs) == 0.0
    assert abs(lr_at(W, cfg, spe, epochs) - 1.5e-4) < 1e-12
    assert abs(lr_at(T, cfg, spe, epochs) - 1e-6) < 1e-12

    wd_cfg = ScheduleConfig(wd_init=0.03, wd_final=0.09)
    Tw = 100 * 4
    for t in (0, Tw // 2, Tw):
        closed_form = 0.03 + 0.5 * (0.09 - 0.03) * (1 + np.cos(np.pi * t / Tw))
        assert abs(wd_at(t, wd_cfg, 4, 100) - closed_form) < 1e-12

    poly = ScheduleConfig(mode="polynomial", decay_exponent=1.0)
    assert lr_at(0, poly, 2, 50) == poly.lr_max
    assert lr_at(50 * 2, poly, 2, 50) == 0.0
    report(2, "lr endpoints (0, 1.5e-4, 1e-6) and cosine weight decay closed "
              "form within 1e-12; polynomial endpoints exact")


@pytest.mark.parametrize("m", [0.996, 0.999, 1.0])
def test_criterion_03_ema_contraction(m):
    rng = np.random.default_rng(0)
    theta = {"a": rng.standard_normal((6, 5)), "b": rng.standard_normal(17)}
    xi = {"a": rng.standard_normal((6, 5)), "b": rng.standard_normal(17)}
    initial = {k: xi[k] - theta[k] for k in xi}
    for k in range(1, 21):
        ema_update(theta, xi, m)
        for name in xi:
            expected = (m ** k) * initial[name]
            if m == 1.0:
                np.testing.assert_array_equal(xi[name] - theta[name],
                                              initial[name])
            else:
                np.testing.assert_allclose(xi[name] - theta[name], expected,
                                           rtol=1e-9)
    report(3, f"|xi_k - theta| = m^k |xi_0 - theta| for k=1..20 at m={m} "
              f"within 1e-9 relative")


def test_criterion_04_loss_oracles():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        h = rng.standard_normal((n, d))
        z = rng.standard_normal((n, d))
        # scalar-loop alignment oracle
        total = 0.0
        for i in range(n):
            def ln(v):
                mu = sum(v) / d
                var = sum((x - mu) ** 2 for x in v) / d
                return [(x - mu) / np.sqrt(var + 1e-5) for x in v]
            total += sum((a - b) ** 2 for a, b in zip(ln(list(h[i])),
                                                      ln(list(z[i]))))
        assert float(alignment_loss_t(h, ad.constant(z), n).data) == pytest.approx(
            total / n, rel=1e-6)

        m_ch = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        p_t = int(rng.integers(1, 5))
        patches = rng.standard_normal((m_ch, n_t, p_t))
        x_hat = rng.standard_normal((m_ch, n_t, p_t))
        mask = rng.random((m_ch, n_t)) < 0.5
        mask[0, 0] = True
        loop, count = 0.0, 0
        for i in range(m_ch):
            for j in range(n_t):
                if mask[i, j]:
                    count += 1
                    for s in range(p_t):
                        loop += (x_hat[i, j, s] - patches[i, j, s]) ** 2
        assert float(reconstruction_loss_t(ad.constant(x_hat), patches, mask,
                                           int(mask.sum())).data) == pytest.approx(
            loop / count, rel=1e-6)

    h = rng.standard_normal((7, 6))
    assert float(alignment_loss_t(h, ad.constant(h), 7).data) == 0.0
    # per-token positive affine
    assert float(alignment_loss_t(2.0 * h + 3.0, ad.constant(h), 7).data) < 1e-5
    with pytest.raises(ValidationError, match=r"\|M\| = 0"):
        reconstruction_loss_t(ad.constant(np.zeros((2, 2, 3))),
                              np.zeros((2, 2, 3)), np.zeros((2, 2), bool), 0)
    report(4, "both losses match scalar-loop oracles on 100 random instances "
              "(rel 1e-6); L_A(h,h)=0; affine invariance < 1e-5; empty-mask "
              "error raised")


def test_criterion_05_masking_statistics():
    fraction = batch_mask(2024, 0, 1, (100, 100), 0.5)[0].mean()
    assert abs(fraction - 0.5) < 0.015

    cfg = GRADCHECK_CFG
    rng = np.random.default_rng(0)
    segment = rng.standard_normal((cfg.in_channels, cfg.segment_samples)).astype(np.float32)
    store = init_param_store(cfg, seed=1)
    mask = np.zeros((cfg.mapped_channels, cfg.n_t), bool)
    mask[:, 0] = True
    mask[:, 2] = True
    perturbed = segment.copy()
    for j in (0, 2):
        perturbed[:, j * cfg.p_t:(j + 1) * cfg.p_t] += rng.standard_normal(
            (cfg.in_channels, cfg.p_t)).astype(np.float32) * 5.0
    params = wrap_constants(store)
    a = forward_tokens(params, patch_grid(params, segment[None], cfg),
                       mask[None], cfg).data
    b = forward_tokens(params, patch_grid(params, perturbed[None], cfg),
                       mask[None], cfg).data
    assert a.tobytes() == b.tobytes()
    report(5, f"masked fraction {fraction:.4f} within 0.5 +/- 0.015 on 10,000 "
              f"positions; masked-content independence bitwise exact")


def test_criterion_06_pretraining_descent(corpus, pretrain_result):
    records = pretrain_result["records"]
    elapsed = pretrain_result["elapsed"]
    steps_per_epoch = len(records) // 20
    first = float(np.mean([r.L_total for r in records[:steps_per_epoch]]))
    final = float(np.mean([r.L_total for r in records[-steps_per_epoch:]]))
    assert final <= 0.5 * first
    assert elapsed < 600.0

    ckpt = pretrain_result["ckpt"]
    theta, xi = ckpt.theta, ckpt.xi
    x = corpus.segments.astype(np.float32)
    mask = batch_mask(ACCEPT_SEED, ckpt.step, x.shape[0],
                      (ACCEPT_ENC.mapped_channels, ACCEPT_ENC.n_t), 0.5)
    targets = patch_grid(wrap_constants(xi), x, ACCEPT_ENC).data
    model_err, baseline_err = [], []
    params = wrap_constants(theta)
    for lo in range(0, x.shape[0], 64):
        sl = slice(lo, lo + 64)
        z = forward_tokens(params, patch_grid(params, x[sl], ACCEPT_ENC),
                           mask[sl], ACCEPT_ENC)
        pred = predict_patches(params, z, ACCEPT_ENC).data
        tt, mm = targets[sl], mask[sl]
        model_err.append(((pred - tt) ** 2).sum(-1)[mm])
        dc = tt.mean(-1, keepdims=True)
        baseline_err.append(((dc - tt) ** 2).sum(-1)[mm])
    model_mse = float(np.concatenate(model_err).mean())
    baseline_mse = float(np.concatenate(baseline_err).mean())
    assert model_mse < baseline_mse
    report(6, f"final-epoch mean L_total {final:.3f} <= 0.5 x first-epoch "
              f"{first:.3f} (ratio {final / first:.3f}); masked-patch MSE "
              f"{model_mse:.3f} < patch-mean baseline {baseline_mse:.3f}; "
              f"runtime {elapsed:.0f}s < 600s")


def test_criterion_07_representation_sanity(pretrain_result):
    data = synth_labeled_dataset(PROBE_SPEC, classes=2, per_class=200,
                                 band_hz=(8.0, 12.0), power_ratio=4.0)
    idx = np.arange(len(data))
    train_sel = idx[(idx % 4) < 2]    # 200 train / 200 test, both balanced
    test_sel = idx[(idx % 4) >= 2]
    assert len(train_sel) == 200 and len(test_sel) == 200
    test_y = data.labels[test_sel]

    def probe_accuracy(features, train_labels):
        train = FeatureSet(features[train_sel], train_labels)
        probe = fit_probe(train, epochs=500, seed=5)
        return compute_metrics(predict_scores(probe, features[test_sel]),
                               test_y).balanced_accuracy

    features = extract_features(data, pretrain_result["ckpt"], ACCEPT_ENC).features
    train_y = data.labels[train_sel]
    accuracy = probe_accuracy(features, train_y)
    assert accuracy >= 0.80

    rng = make_rng(99)
    control = probe_accuracy(features, train_y[rng.permutation(len(train_y))])
    assert control <= 0.65

    # not gated: the same seed's step-0 xi, probed on the same split, shows
    # how much of the score pretraining is responsible for
    untrained = init_checkpoint(pretrain_result["cfg"])
    random_init = probe_accuracy(
        extract_features(data, untrained, ACCEPT_ENC).features, train_y)
    report(7, f"held-out balanced accuracy {accuracy:.3f} >= 0.80 "
              f"on frozen features (power_ratio 4, 200/200); shuffled-label "
              f"control {control:.3f} <= 0.65; random-init (step-0 xi) "
              f"control {random_init:.3f}, not gated")


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(7)

    def oracle(pred, truth):
        classes = sorted(set(truth.tolist()))
        k, n = len(classes), len(truth)
        cm = np.zeros((k, k))
        for t, p in zip(truth, pred):
            cm[classes.index(t), classes.index(p)] += 1
        ba = np.mean([cm[i, i] / cm[i].sum() for i in range(k)])
        p_o = np.trace(cm) / n
        p_e = sum(cm[i].sum() * cm[:, i].sum() for i in range(k)) / n ** 2
        kappa = (p_o - p_e) / (1 - p_e)
        f1_sum = 0.0
        for i in range(k):
            denom = cm[i].sum() + cm[:, i].sum()
            f1_sum += (2 * cm[i, i] / denom if denom else 0.0) * cm[i].sum()
        return float(ba), float(kappa), float(f1_sum / n)

    def oracle_auroc(positive, scores):
        pos, neg = scores[positive], scores[~positive]
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        return wins / (len(pos) * len(neg))

    for trial in range(200):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 1, 51))
        truth = rng.integers(0, k, n)
        truth[:k] = np.arange(k)      # every class present
        scores = np.round(rng.random((n, k)), 2)   # coarse grid forces ties
        rep = compute_metrics(scores, truth)
        pred = np.argmax(scores, axis=1)
        ba, kappa, f1 = oracle(pred, truth)
        assert rep.balanced_accuracy == ba
        assert rep.cohens_kappa == kappa
        assert rep.weighted_f1 == f1
        if k == 2:
            expected = oracle_auroc(truth == 1, scores[:, 1])
        else:
            expected = np.mean([oracle_auroc(truth == c, scores[:, c])
                                for c in range(k)])
        assert rep.auroc == pytest.approx(expected, abs=1e-12)

    truth = np.array([0, 1, 0, 1])
    perfect = compute_metrics(np.eye(2)[truth], truth)
    assert (perfect.balanced_accuracy, perfect.cohens_kappa,
            perfect.weighted_f1, perfect.auroc) == (1.0, 1.0, 1.0, 1.0)
    one_class = compute_metrics(np.array([1, 1, 1, 1]), truth)
    assert one_class.balanced_accuracy == 0.5
    assert one_class.cohens_kappa == 0.0
    report(8, "BA/kappa/weighted-F1 equal brute-force confusion oracle and "
              "AUROC the pairwise tie-half oracle on 200 random instances "
              "(n <= 50); perfect case all ones; one-class case BA=0.5 kappa=0")


def test_criterion_09_determinism_and_formats(tmp_path):
    enc = EncoderConfig(d=16, layers=2, heads=4, mlp_ratio=4.0, p_t=8,
                        in_channels=4, mapped_channels=4, n_t=4, stem_kernel=7)
    rng = np.random.default_rng(5)
    data = SegmentBatch(rng.standard_normal((16, 4, 32)).astype(np.float32),
                        sample_rate_hz=256.0)
    cfg = RunConfig(seed=3, encoder=enc,
                    schedule=ScheduleConfig(lr_max=1e-3, warmup_epochs=1),
                    train=TrainConfig(batch_size=8, epochs=2, p_mask=0.5, lam=1.0))
    blobs = []
    for _ in range(2):
        ckpt, _ = run_pretraining(cfg, data)
        sink = io.BytesIO()
        save_checkpoint(ckpt, sink)
        blobs.append(sink.getvalue())
    assert blobs[0] == blobs[1]

    rec = synth_recording(SynthSpec(seed=1, channel_count=3, duration_s=1.0,
                                    sample_rate_hz=128.0))
    rec_path = tmp_path / "rt.lcmr"
    write_recording(rec, rec_path)
    assert read_recording(rec_path) == rec

    ckpt_stream = io.BytesIO(blobs[0])
    loaded = load_checkpoint(ckpt_stream)
    resaved = io.BytesIO()
    save_checkpoint(loaded, resaved)
    assert resaved.getvalue() == blobs[0]

    kinds = set()
    try:
        read_recording(io.BytesIO(b"XXXX" + b"\x00" * 40))
    except FormatError as e:
        kinds.add(e.kind)
    try:
        read_recording(io.BytesIO(blobs[0][:20]))  # LCMC magic fed to LCMR
    except FormatError as e:
        kinds.add(e.kind)
    truncated = rec_path.read_bytes()[:-3]
    try:
        read_recording(io.BytesIO(truncated))
    except FormatError as e:
        kinds.add(e.kind)
    assert {"magic", "truncated"} <= kinds
    report(9, "same-seed pretraining checkpoints bitwise identical; LCMR/LCMC "
              "roundtrips bitwise; corrupt magic and truncation rejected with "
              "distinct error kinds")


def test_criterion_10_preprocessing_dsp():
    t = np.arange(1024) / 256.0
    stop = lowpass(np.sin(2 * np.pi * 50.0 * t), 256.0, 38.0)
    stop_amp = np.abs(stop[256:768]).max()
    assert stop_amp <= 0.01                        # >= 40 dB attenuation

    passband = lowpass(np.sin(2 * np.pi * 10.0 * t), 256.0, 38.0)
    pass_amp = np.abs(passband[256:768]).max()
    assert abs(pass_amp - 1.0) < 0.1

    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 64)) * 4.0
    # the pipeline with the rate kept and the low-pass off: the re-reference
    # alone, then one 64-sample float32 segment
    ref = preprocess(Recording(default_montage(8), 256.0, 1.0, x),
                     PreprocConfig(segment_s=0.25, apply_bandpass=False)).segments[0]
    rms = np.sqrt((x ** 2).mean())
    assert np.abs(ref.mean(axis=0, dtype=float)).max() < 1e-6 * rms

    tone = np.sin(2 * np.pi * 20.0 * np.arange(2048) / 512.0)
    down = resample(tone, 512.0, 256.0)
    mags = np.abs(np.fft.rfft(down))
    freqs = np.fft.rfftfreq(down.shape[-1], 1.0 / 256.0)
    assert freqs[np.argmax(mags)] == pytest.approx(20.0)
    report(10, f"50 Hz attenuated to {stop_amp:.4f} (>= 40 dB), 10 Hz gain "
               f"{pass_amp:.3f} within 10%, re-reference residual < 1e-6 RMS, "
               f"20 Hz peak preserved through 512->256 Hz")
