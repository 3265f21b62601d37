"""Training-step invariants, gradient check, determinism, resume."""

import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eegssl
from eegssl.config import RunConfig, TrainConfig
from eegssl.data import SegmentBatch, save_checkpoint, save_segments
from eegssl.encoder import EncoderConfig, wrap_parameters
from eegssl.errors import ValidationError
from eegssl.optim import ScheduleConfig
from eegssl.trainer import (GradCheckReport, _training_loss, batch_mask,
                            grad_check, grad_stats, init_train_state,
                            make_checkpoint, restore_train_state, run_pretraining,
                            train_step)

SMALL_ENC = EncoderConfig(d=16, layers=2, heads=4, mlp_ratio=4.0, p_t=8,
                          in_channels=4, mapped_channels=4, n_t=4, stem_kernel=7)


def small_data(n=16, seed=0):
    rng = np.random.default_rng(seed)
    segments = rng.standard_normal(
        (n, SMALL_ENC.in_channels, SMALL_ENC.segment_samples)).astype(np.float32)
    return SegmentBatch(segments=segments, sample_rate_hz=256.0)


def small_config(schedule=ScheduleConfig(lr_max=1e-3, warmup_epochs=1), seed=0,
                 **train):
    base = dict(batch_size=8, epochs=4, p_mask=0.5, lam=1.0)
    base.update(train)
    return RunConfig(seed=seed, encoder=SMALL_ENC, schedule=schedule,
                     train=TrainConfig(**base))


# --- grad_stats -----------------------------------------------------------------

def test_grad_stats_all_zero():
    stats = grad_stats({"a": np.zeros(4), "b": np.zeros((2, 2))}, ("a",), ("b",))
    assert stats == (0.0, 0.0, 0.0, 0.0)


def test_grad_stats_singleton_groups():
    g = {"only": np.array([3.0, 4.0])}
    stats = grad_stats(g, ("only",), ("only",))
    assert stats == (5.0, 5.0, 5.0, 5.0)


def test_grad_stats_min_max():
    g = {"a": np.array([3.0]), "b": np.array([4.0])}
    _, _, g_min, g_max = grad_stats(g)
    assert (g_min, g_max) == (3.0, 4.0)


def test_grad_stats_group_means_within_bounds():
    rng = np.random.default_rng(1)
    g = {f"t{i}": rng.standard_normal(5) for i in range(6)}
    first = ("t0", "t1")
    last = ("t4", "t5")
    g_first, g_last, g_min, g_max = grad_stats(g, first, last)
    assert g_min <= min(g_first, g_last) <= max(g_first, g_last) <= g_max


def test_grad_stats_empty_rejected():
    with pytest.raises(ValidationError):
        grad_stats({})


# --- train_step invariants --------------------------------------------------------

def test_m_forced_one_leaves_xi_bitwise():
    cfg = small_config(schedule=ScheduleConfig(
        lr_max=1e-3, warmup_epochs=1, m_low=1.0, m_high=1.0))
    state = init_train_state(cfg, steps_per_epoch=2)
    data = small_data()
    before = {k: v.tobytes() for k, v in state.xi.items()}
    for t in range(3):
        train_step(data.segments[:8], state, t)
    after = {k: v.tobytes() for k, v in state.xi.items()}
    assert after == before
    # theta did move
    assert any(state.theta[k].tobytes() != state.xi[k].tobytes()
               for k in state.theta)


def test_lr_zero_leaves_theta_bitwise():
    cfg = small_config(epochs=200, schedule=ScheduleConfig(
        lr_max=1e-9, lr_final=1e-9, warmup_epochs=199))
    state = init_train_state(cfg, steps_per_epoch=1)
    data = small_data()
    before = {k: v.tobytes() for k, v in state.theta.items()}
    train_step(data.segments[:8], state, 0)   # warmup step 0 -> lr exactly 0
    after = {k: v.tobytes() for k, v in state.theta.items()}
    assert after == before
    # xi moved toward theta? theta == xi initially, so xi also unchanged;
    # optimizer moments must have been updated
    assert any(state.v[k].any() for k in state.v)


def test_thirty_steps_descend_on_fixed_batch():
    cfg = small_config(epochs=30,
                       schedule=ScheduleConfig(lr_max=1e-3, warmup_epochs=5))
    state = init_train_state(cfg, steps_per_epoch=1)
    batch = small_data(n=8).segments
    records = [train_step(batch, state, t) for t in range(30)]
    assert records[-1].L_total < records[0].L_total


def test_log_record_fields_and_bounds():
    cfg = small_config()
    state = init_train_state(cfg, steps_per_epoch=2)
    rec = train_step(small_data().segments[:8], state, 0)
    assert rec.g_min <= min(rec.g_first_mean, rec.g_last_mean)
    assert max(rec.g_first_mean, rec.g_last_mean) <= rec.g_max
    parsed = json.loads(rec.to_json())
    assert list(parsed) == ["epoch", "step", "L_A", "L_R", "L_total", "lr", "wd",
                            "m", "g_first_mean", "g_last_mean", "g_min", "g_max"]


def test_mask_derived_from_seed_and_step():
    a = batch_mask(1, 5, 4, (4, 4), 0.5)
    b = batch_mask(1, 5, 4, (4, 4), 0.5)
    c = batch_mask(1, 6, 4, (4, 4), 0.5)
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()
    assert not batch_mask(1, 5, 4, (4, 4), 0.0).any()     # nothing masked
    assert batch_mask(1, 5, 4, (4, 4), 1.0).all()         # everything masked


def test_mask_fraction_binomial_bound():
    # 10,000 positions at p=0.5: 3 sigma is 0.015
    fraction = batch_mask(7, 0, 1, (100, 100), 0.5).mean()
    assert abs(fraction - 0.5) < 0.015


def test_mask_seed_reproducible_bitwise():
    a = batch_mask(9, 0, 1, (16, 16), 0.3)
    b = batch_mask(9, 0, 1, (16, 16), 0.3)
    np.testing.assert_array_equal(a, b)


def test_mask_distinct_seeds_differ():
    a = batch_mask(1, 0, 1, (8, 8), 0.5)
    b = batch_mask(2, 0, 1, (8, 8), 0.5)
    assert (a != b).any()


# --- the training tape -----------------------------------------------------------------

def training_graph(cfg, b=2):
    """Parameter tensors and the traced total loss of one small batch."""
    state = init_train_state(cfg, 1)
    enc = cfg.encoder
    mask = batch_mask(cfg.seed, 0, b, (enc.mapped_channels, enc.n_t), cfg.train.p_mask)
    params = wrap_parameters(state.theta)
    total, _, _ = _training_loss(params, state.xi, small_data(b).segments, mask, enc,
                                 cfg.train.lam)
    return params, total


def graph_nodes(root):
    """Every tensor reachable from `root` through `_parents`."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def keep_tape_backward(root):
    """Reference walk that frees nothing: the DFS post-order of
    `Tensor.backward`, gradients accumulated into every input."""
    order, visited = [], {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        nxt = next((p for p in parents if id(p) not in visited), None)
        if nxt is None:
            order.append(node)
            stack.pop()
        else:
            visited.add(id(nxt))
            stack.append((nxt, iter(nxt._parents)))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is not None:
                    parent.grad = g if parent.grad is None else parent.grad + g


def test_backward_frees_training_tape_with_same_grads():
    params, total = training_graph(small_config())
    interior = [n for n in graph_nodes(total) if n._parents]
    total.backward()
    assert all(n.grad is None and n._backward is None for n in interior)
    ref_params, ref_total = training_graph(small_config())
    keep_tape_backward(ref_total)
    for name, t in params.items():
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == ref_params[name].grad.tobytes(), name


def held_shapes(total):
    """Shapes of the distinct base arrays the training tape keeps alive:
    node outputs and the arrays captured by each backward closure."""
    held = {}

    def hold(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            held[id(obj)] = obj.shape
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                hold(item)
        elif callable(obj):  # closures nested inside a backward
            for cell in getattr(obj, "__closure__", None) or ():
                hold(cell.cell_contents)

    for node in graph_nodes(total):
        hold(node.data)
        hold(node._backward)
    return list(held.values())


def test_training_graph_holds_one_score_buffer_per_layer():
    # the attention backward keeps only the probabilities of its two head
    # groups, not the scores, and no full (N, N) buffer exists
    b, enc = 2, replace(SMALL_ENC, mapped_channels=6)  # channels != windows
    _, total = training_graph(replace(small_config(), encoder=enc), b)
    n, mp, n_t, half = enc.n_tokens, enc.mapped_channels, enc.n_t, enc.heads // 2
    shapes = held_shapes(total)
    assert shapes.count((b, mp, half, n_t, n_t)) == enc.layers
    assert shapes.count((b, n_t, half, mp, mp)) == enc.layers
    assert (b, enc.heads, n, n) not in shapes


def test_training_graph_holds_no_separate_matmul_or_bias_outputs():
    # each linear layer is one op with its bias added in place: the MLP keeps
    # only the w1 output, gelu's Phi and the gelu output at its hidden width,
    # and no linear weight feeds a matmul node whose output would stay held
    b, enc = 2, SMALL_ENC
    params, total = training_graph(small_config(), b)
    assert enc.hidden not in (enc.n_tokens, enc.d)
    assert held_shapes(total).count((b, enc.n_tokens, enc.hidden)) == 3 * enc.layers
    weights = {id(t) for name, t in params.items()
               if name.startswith("layers.") and ".w" in name or name == "recon.weight"}
    assert len(weights) == 6 * enc.layers + 1
    matmuls = [node for node in graph_nodes(total)
               if getattr(node._backward, "__qualname__", "").startswith("matmul.")]
    assert matmuls and not any(id(p) in weights for node in matmuls for p in node._parents)


# --- gradient verification ----------------------------------------------------------

def test_grad_check_full_model_passes():
    report = grad_check(RunConfig(encoder=SMALL_ENC))
    assert isinstance(report, GradCheckReport)
    assert report.max_rel_error < 1e-4
    assert set(report.per_tensor) == set(init_train_state(small_config(), 1).theta)


def test_grad_check_linear_head_tight():
    cfg = EncoderConfig(d=16, layers=0, heads=4, mlp_ratio=4.0, p_t=8,
                        in_channels=4, mapped_channels=4, n_t=4, stem_kernel=7)
    report = grad_check(RunConfig(encoder=cfg))
    assert report.per_tensor["recon.weight"] < 1e-6
    assert report.per_tensor["recon.bias"] < 1e-6
    assert report.max_rel_error < 1e-4


def test_corrupted_gradient_is_flagged(monkeypatch):
    exact = eegssl.trainer._loss_and_grads

    def corrupted(*args):
        *losses, grads = exact(*args)
        grads["recon.weight"] = grads["recon.weight"] * 1.10
        return (*losses, grads)

    monkeypatch.setattr(eegssl.trainer, "_loss_and_grads", corrupted)
    errors = grad_check(RunConfig(encoder=SMALL_ENC)).per_tensor
    assert errors["recon.weight"] > 1e-4
    assert max(v for k, v in errors.items() if k != "recon.weight") < 1e-4


def test_nan_gradient_is_flagged(monkeypatch):
    exact = eegssl.trainer._loss_and_grads

    def corrupted(*args):
        *losses, grads = exact(*args)
        grads["recon.weight"] = grads["recon.weight"] * np.nan
        return (*losses, grads)

    monkeypatch.setattr(eegssl.trainer, "_loss_and_grads", corrupted)
    report = grad_check(RunConfig(encoder=SMALL_ENC))
    assert report.per_tensor["recon.weight"] == np.inf
    assert report.max_rel_error == np.inf


# --- full runs -----------------------------------------------------------------------

def test_same_seed_runs_bitwise_identical():
    data = small_data()
    cfg = small_config(epochs=2)
    ckpt_a, recs_a = run_pretraining(cfg, data)
    ckpt_b, recs_b = run_pretraining(cfg, data)
    sink_a, sink_b = io.BytesIO(), io.BytesIO()
    save_checkpoint(ckpt_a, sink_a)
    save_checkpoint(ckpt_b, sink_b)
    assert sink_a.getvalue() == sink_b.getvalue()
    assert [r.to_json() for r in recs_a] == [r.to_json() for r in recs_b]


def test_different_seed_differs():
    data = small_data()
    ckpt_a, _ = run_pretraining(small_config(epochs=2), data)
    ckpt_b, _ = run_pretraining(small_config(epochs=2, seed=1), data)
    blobs = []
    for ck in (ckpt_a, ckpt_b):
        sink = io.BytesIO()
        save_checkpoint(ck, sink)
        blobs.append(sink.getvalue())
    assert blobs[0] != blobs[1]


def test_resume_reproduces_log_stream(tmp_path):
    from eegssl.data import load_checkpoint
    data = small_data()
    full_cfg = small_config(epochs=4, checkpoint_dir=str(tmp_path),
                            checkpoint_every_epochs=2)
    full_ckpt, full_records = run_pretraining(full_cfg, data)

    # resume the same configuration from the mid-run checkpoint
    mid = load_checkpoint(tmp_path / "checkpoint_00000004.lcmc")
    assert mid.step == 4
    resume_cfg = small_config(epochs=4)
    resumed_ckpt, resumed_records = run_pretraining(resume_cfg, data,
                                                    resume_from=mid)
    assert [r.to_json() for r in resumed_records] == \
        [r.to_json() for r in full_records[4:]]
    a, b = io.BytesIO(), io.BytesIO()
    save_checkpoint(full_ckpt, a)
    save_checkpoint(resumed_ckpt, b)
    assert a.getvalue() == b.getvalue()


def test_checkpoint_restore_roundtrip():
    data = small_data()
    cfg = small_config(epochs=2)
    ckpt, _ = run_pretraining(cfg, data)
    state = init_train_state(cfg, steps_per_epoch=2)
    step = restore_train_state(state, ckpt)
    assert step == ckpt.step
    rebuilt = make_checkpoint(state, step)
    for group in ("theta", "xi", "m", "v"):
        for name, v in getattr(ckpt, group).items():
            assert getattr(rebuilt, group)[name].tobytes() == v.tobytes()


def test_restore_rejects_checkpoint_of_another_encoder():
    ckpt = make_checkpoint(init_train_state(small_config(), 1), 0)
    wide = RunConfig(encoder=EncoderConfig(d=32, layers=2, heads=4, p_t=8,
                                           in_channels=4, mapped_channels=4,
                                           n_t=4, stem_kernel=7))
    with pytest.raises(ValidationError, match="does not match the configured encoder"):
        restore_train_state(init_train_state(wide, 2), ckpt)


def test_log_file_written_jsonl(tmp_path):
    log = tmp_path / "train.jsonl"
    data = small_data()
    cfg = small_config(epochs=2, log_path=str(log))
    _, records = run_pretraining(cfg, data)
    lines = log.read_text().strip().split("\n")
    assert len(lines) == len(records)
    assert json.loads(lines[0])["step"] == 0


def test_checkpoint_cadence(tmp_path):
    data = small_data()
    cfg = small_config(epochs=4, checkpoint_dir=str(tmp_path),
                       checkpoint_every_epochs=2)
    run_pretraining(cfg, data)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "final.lcmc" in names
    assert any(n.startswith("checkpoint_") for n in names)


def test_empty_data_rejected():
    with pytest.raises(ValidationError):
        run_pretraining(small_config(), SegmentBatch(
            np.zeros((0, 4, 32), np.float32), sample_rate_hz=256.0))


def test_mutation_paths_exclusive():
    # under m=1 only adamw touches theta; under lr=0 only ema touches xi
    data = small_data()
    cfg = small_config(schedule=ScheduleConfig(lr_max=1e-3, warmup_epochs=1,
                                               m_low=1.0, m_high=1.0))
    state = init_train_state(cfg, steps_per_epoch=2)
    xi_before = {k: v.tobytes() for k, v in state.xi.items()}
    theta_before = {k: v.tobytes() for k, v in state.theta.items()}
    train_step(data.segments[:8], state, 1)
    assert {k: v.tobytes() for k, v in state.xi.items()} == xi_before
    assert {k: v.tobytes() for k, v in state.theta.items()} != theta_before


def test_checkpoint_independent_of_blas_threads(tmp_path):
    # the same seed gives the same checkpoint bytes whether the BLAS library
    # runs one thread or two
    rng = np.random.default_rng(3)
    segments = rng.standard_normal((64, 8, 1024)).astype(np.float32)
    save_segments(SegmentBatch(segments, sample_rate_hz=256.0), tmp_path / "seg.lcms")
    run = {"encoder": {"d": 32, "layers": 2, "heads": 4, "p_t": 64, "in_channels": 8,
                       "mapped_channels": 8, "n_t": 16},
           "schedule": {"lr_max": 2e-3, "warmup_epochs": 1},
           "train": {"batch_size": 16, "epochs": 3}}
    (tmp_path / "run.json").write_text(json.dumps(run))
    src = str(Path(eegssl.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        out = f"model{threads}.lcmc"
        subprocess.run([sys.executable, "-m", "eegssl.cli", "pretrain", "seg.lcms",
                        "--config", "run.json", "--seed", "3", "--out", out],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        digests.append(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest())
    assert digests[0] == digests[1]
