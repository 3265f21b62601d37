"""Schedule closed forms, AdamW reference arithmetic, EMA contraction."""

import numpy as np
import pytest

from eegssl.encoder import EncoderConfig, init_param_store
from eegssl.errors import DivergenceError, ValidationError
from eegssl.optim import (ScheduleConfig, adamw_step,
                          default_decay_exempt, ema_update, lr_at,
                          momentum_at, wd_at)


SPE, EPOCHS = 5, 200   # a run of 1000 steps, 50 of them warmup
T, W = SPE * EPOCHS, SPE * 10


def sched(**kw):
    base = dict(lr_max=1.5e-4, lr_final=1e-6, warmup_epochs=10)
    base.update(kw)
    return ScheduleConfig(**base)


# --- learning rate ---------------------------------------------------------------

def test_warmup_cosine_endpoints():
    cfg = sched()
    assert lr_at(0, cfg, SPE, EPOCHS) == 0.0
    assert abs(lr_at(W, cfg, SPE, EPOCHS) - 1.5e-4) < 1e-12
    assert abs(lr_at(T, cfg, SPE, EPOCHS) - 1e-6) < 1e-12


def test_warmup_is_linear():
    cfg = sched()
    assert lr_at(W // 2, cfg, SPE, EPOCHS) == pytest.approx(1.5e-4 * (W // 2) / W)


def test_continuity_at_warmup_boundary():
    cfg = sched()
    left = lr_at(W - 1, cfg, SPE, EPOCHS)
    right = lr_at(W + 1, cfg, SPE, EPOCHS)
    peak = lr_at(W, cfg, SPE, EPOCHS)
    assert left < peak and right < peak
    assert peak - left < 2 * 1.5e-4 / W
    assert abs(peak - cfg.lr_max) < 1e-12


def test_monotone_decay_after_warmup():
    cfg = sched()
    values = [lr_at(t, cfg, SPE, EPOCHS) for t in range(W, T + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_polynomial_mode_endpoints():
    cfg = sched(mode="polynomial", decay_exponent=1.0)
    assert lr_at(0, cfg, SPE, EPOCHS) == cfg.lr_max
    assert lr_at(T, cfg, SPE, EPOCHS) == 0.0
    cfg2 = sched(mode="polynomial", decay_exponent=2.0)
    t = T // 2
    assert lr_at(t, cfg2, SPE, EPOCHS) == pytest.approx(cfg2.lr_max * (1 - t / T) ** 2)


def test_step_out_of_range_rejected():
    cfg = sched()
    for fn in (lr_at, wd_at, momentum_at):
        fn(0, cfg, SPE, EPOCHS)
        fn(T, cfg, SPE, EPOCHS)
        for t in (-1, T + 1, 10 * T - 1):
            with pytest.raises(ValidationError):
                fn(t, cfg, SPE, EPOCHS)
        for steps_per_epoch, epochs in ((0, EPOCHS), (SPE, 0)):  # an empty run
            with pytest.raises(ValidationError, match="a run needs"):
                fn(0, cfg, steps_per_epoch, epochs)


# --- weight decay ------------------------------------------------------------------

def test_wd_closed_form():
    cfg = sched(wd_init=0.02, wd_final=0.08)
    assert abs(wd_at(0, cfg, SPE, EPOCHS) - 0.08) < 1e-12       # cos(0)=1: w_final
    assert abs(wd_at(T, cfg, SPE, EPOCHS) - 0.02) < 1e-12       # cos(pi)=-1: w_init
    assert abs(wd_at(T // 2, cfg, SPE, EPOCHS) - 0.05) < 1e-12  # cos(pi/2)=0: midpoint


def test_wd_constant_when_equal():
    cfg = sched()
    for t in (0, 17, T):
        assert wd_at(t, cfg, SPE, EPOCHS) == pytest.approx(0.05, abs=1e-15)


# --- momentum -----------------------------------------------------------------------

def test_momentum_endpoints():
    cfg = sched()
    assert abs(momentum_at(0, cfg, SPE, EPOCHS) - 0.996) < 1e-12
    assert abs(momentum_at(T, cfg, SPE, EPOCHS) - 1.0) < 1e-12


def test_momentum_monotone_nondecreasing():
    cfg = sched()
    values = [momentum_at(t, cfg, SPE, EPOCHS) for t in range(0, T + 1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_schedule_invariants():
    with pytest.raises(ValidationError):
        sched(lr_final=1.0)           # lr_final > lr_max
    with pytest.raises(ValidationError):
        sched(m_low=0.5)
    with pytest.raises(ValidationError):
        sched(mode="linear")


# --- AdamW ---------------------------------------------------------------------------

def zero_moments(store):
    return ({k: np.zeros_like(v) for k, v in store.items()},
            {k: np.zeros_like(v) for k, v in store.items()})


def single_param(value):
    store = {"w": np.array([value], dtype=np.float64)}
    return (store, *zero_moments(store))


def test_zero_gradient_no_decay_keeps_params():
    store, m, v = single_param(1.5)
    before = store["w"].copy()
    adamw_step(store, {"w": np.zeros(1)}, m, v, step=1, lr=1e-3, wd=0.0)
    np.testing.assert_array_equal(store["w"], before)


def test_zero_lr_updates_moments_only():
    store, m, v = single_param(1.5)
    before = store["w"].copy()
    adamw_step(store, {"w": np.ones(1)}, m, v, step=1, lr=0.0, wd=0.1)
    np.testing.assert_array_equal(store["w"], before)
    assert m["w"][0] != 0.0 and v["w"][0] != 0.0


def test_first_step_scalar_reference():
    # theta=1, g=1, lr=1e-3, wd=0: theta' = 1 - 1e-3 * (1 / (1 + 1e-8))
    store, m, v = single_param(1.0)
    adamw_step(store, {"w": np.ones(1)}, m, v, step=1, lr=1e-3, wd=0.0)
    expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
    assert store["w"][0] == pytest.approx(expected, abs=1e-15)


def test_first_step_update_magnitude_bounded():
    rng = np.random.default_rng(0)
    store = {"w": rng.standard_normal(100)}
    m, v = zero_moments(store)
    g = rng.standard_normal(100) * 50.0
    before = store["w"].copy()
    adamw_step(store, {"w": g}, m, v, step=1, lr=1e-2, wd=0.0)
    assert np.abs(store["w"] - before).max() <= 1e-2 * (1.0 + 1e-6)


def test_adam_direction_scale_invariant_at_t1():
    # multiplying gradients by c > 0 leaves the first update unchanged
    updates = []
    for c in (1.0, 100.0):
        store, m, v = single_param(2.0)
        adamw_step(store, {"w": np.array([0.3]) * c}, m, v, step=1, lr=1e-3, wd=0.0)
        updates.append(store["w"][0])
    assert updates[0] == pytest.approx(updates[1], rel=1e-9)


def test_decoupled_weight_decay():
    store, m, v = single_param(2.0)
    adamw_step(store, {"w": np.zeros(1)}, m, v, step=1, lr=0.1, wd=0.5)
    # zero gradient: only the decay term theta -= lr * wd * theta
    assert store["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_nonfinite_gradient_flagged_with_name():
    store, m, v = single_param(1.0)
    with pytest.raises(DivergenceError, match="gradient overflow at tensor w"):
        adamw_step(store, {"w": np.array([np.inf])}, m, v, step=1, lr=1e-3, wd=0.0)


def test_gradient_of_another_dtype_rejected():
    store = {"w": np.ones(3, dtype=np.float32)}
    m, v = zero_moments(store)
    with pytest.raises(ValidationError, match="gradient mismatch for 'w'"):
        adamw_step(store, {"w": np.ones(3)}, m, v, step=1, lr=1e-3, wd=0.0)
    assert store["w"].dtype == np.float32


def test_decay_exemptions():
    assert default_decay_exempt("layers.0.ln1.gain")
    assert default_decay_exempt("layers.0.ln1.bias")
    assert default_decay_exempt("stem.bias")
    assert default_decay_exempt("layers.1.attn.qkv.bias")
    assert default_decay_exempt("layers.1.mlp.fc2.bias")
    assert default_decay_exempt("channel_embed")
    assert default_decay_exempt("mask_token")
    assert not default_decay_exempt("channel_map")
    assert not default_decay_exempt("layers.0.attn.qkv.weight")
    assert not default_decay_exempt("pos_embed")
    assert not default_decay_exempt("recon.weight")


def test_decay_rule_follows_the_store_names():
    # every bias and gain, the channel embedding and the mask token skip
    # decay; every other encoder tensor decays
    names = list(init_param_store(EncoderConfig(), seed=0))
    exempt = {name for name in names if name.endswith((".bias", ".gain"))}
    exempt |= {"channel_embed", "mask_token"}
    assert {name for name in names if default_decay_exempt(name)} == exempt
    assert len(names) - len(exempt) == 4 + 4 * EncoderConfig().layers + 1


# --- EMA -----------------------------------------------------------------------------

def two_stores(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    theta = {"a": rng.standard_normal((3, 4)).astype(dtype),
             "b": rng.standard_normal(5).astype(dtype)}
    xi = {"a": rng.standard_normal((3, 4)).astype(dtype),
          "b": rng.standard_normal(5).astype(dtype)}
    return theta, xi


def test_m_one_is_bitwise_fixed_point():
    theta, xi = two_stores()
    before = {k: v.tobytes() for k, v in xi.items()}
    ema_update(theta, xi, 1.0)
    assert {k: v.tobytes() for k, v in xi.items()} == before


def test_equal_stores_unchanged_for_any_m():
    theta, _ = two_stores()
    xi = {k: v.copy() for k, v in theta.items()}
    for m in (0.0, 0.5, 0.996):
        ema_update(theta, xi, m)
        for name in xi:
            np.testing.assert_array_equal(xi[name], theta[name])


def test_scalar_arithmetic():
    theta = {"w": np.array([0.0])}
    xi = {"w": np.array([1.0])}
    ema_update(theta, xi, 0.996)
    assert xi["w"][0] == pytest.approx(0.996, abs=1e-12)


@pytest.mark.parametrize("m", [0.996, 0.999, 1.0])
def test_contraction_exact_rate(m):
    theta, xi = two_stores(seed=3)
    initial = {k: xi[k] - theta[k] for k in xi}
    for k in range(1, 21):
        ema_update(theta, xi, m)
        for name in xi:
            expected = (m ** k) * initial[name]
            actual = xi[name] - theta[name]
            if m == 1.0:
                np.testing.assert_array_equal(actual, initial[name])
            else:
                np.testing.assert_allclose(actual, expected, rtol=1e-9)


def test_momentum_out_of_range():
    theta, xi = two_stores()
    with pytest.raises(ValidationError):
        ema_update(theta, xi, 1.5)


def test_ema_dtype_mismatch_rejected():
    theta, _ = two_stores(dtype=np.float64)
    _, xi = two_stores(dtype=np.float32)
    with pytest.raises(ValidationError, match="theta/xi mismatch for 'a'"):
        ema_update(theta, xi, 0.996)
    assert xi["a"].dtype == np.float32
