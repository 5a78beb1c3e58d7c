"""Encoder / head construction and forward-pass contracts."""

import numpy as np
import pytest

from mimoclr.errors import ConfigError
from mimoclr.nncore.layers import Encoder, EncoderConfig, Head, HeadConfig, prefixed
from mimoclr.nncore.tensor import Tensor


def tiny_cfg(**kw):
    base = dict(in_height=8, in_width=16, widths=(4, 8), embed_dim=12)
    base.update(kw)
    return EncoderConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(in_height=6)  # 6 -> 3 not poolable at stage 2
    with pytest.raises(ConfigError):
        tiny_cfg(kernel_size=4)
    with pytest.raises(ConfigError):
        tiny_cfg(widths=())
    tiny_cfg()


def test_encoder_shapes_and_param_names():
    enc = Encoder.init(tiny_cfg(), np.random.default_rng(0))
    assert set(enc.params) == {"conv0.w", "conv0.b", "conv1.w", "conv1.b",
                               "proj.w", "proj.b"}
    assert enc.params["conv0.w"].shape == (4, 2, 3, 3)
    assert enc.params["conv1.w"].shape == (8, 4, 3, 3)
    assert enc.params["proj.w"].shape == (8, 12)
    x = Tensor(np.random.default_rng(1).normal(size=(5, 2, 8, 16)).astype(np.float32))
    z = enc.forward(x)
    assert z.shape == (5, 12)
    assert z.dtype == np.float32


def test_param_count():
    enc = Encoder.init(tiny_cfg(), np.random.default_rng(0))
    want = (4 * 2 * 9 + 4) + (8 * 4 * 9 + 8) + (8 * 12 + 12)
    assert enc.n_parameters() == want


def test_zero_input_gives_zero_embedding():
    # zero bias init: an all-zero input must map to the zero vector
    enc = Encoder.init(tiny_cfg(), np.random.default_rng(2))
    z = enc.forward(Tensor(np.zeros((3, 2, 8, 16), dtype=np.float32)))
    assert np.all(z.data == 0)


def test_init_is_seed_deterministic():
    a = Encoder.init(tiny_cfg(), np.random.default_rng(7))
    b = Encoder.init(tiny_cfg(), np.random.default_rng(7))
    c = Encoder.init(tiny_cfg(), np.random.default_rng(8))
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data) for k in a.params)


def test_init_bounds_follow_fan_in():
    enc = Encoder.init(tiny_cfg(), np.random.default_rng(3))
    w0 = enc.params["conv0.w"].data
    bound0 = 1.0 / np.sqrt(2 * 9)
    assert np.max(np.abs(w0)) <= bound0
    assert np.max(np.abs(w0)) > 0.5 * bound0  # actually fills the range
    assert np.all(enc.params["conv0.b"].data == 0)
    assert np.all(enc.params["proj.b"].data == 0)


def test_head_forward_and_out_dim():
    head = Head.init(HeadConfig(in_dim=12, hidden_dim=6, out_dim=3),
                     np.random.default_rng(0))
    y = head.forward(Tensor(np.random.default_rng(1).normal(size=(4, 12))))
    assert y.shape == (4, 3)
    with pytest.raises(ConfigError):
        HeadConfig(in_dim=0, hidden_dim=4, out_dim=2)


def test_prefixed_shares_tensors():
    enc = Encoder.init(tiny_cfg(), np.random.default_rng(0))
    view = prefixed(enc.params, "enc.")
    assert view["enc.proj.w"] is enc.params["proj.w"]
