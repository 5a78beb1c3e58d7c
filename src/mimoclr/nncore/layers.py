"""Encoder and task-head modules built on the autodiff tensor.

The encoder maps a two-channel real input image [2, P, K] (P = antenna
pairs, K = frequency/delay bins) to an embedding: a stack of
conv3x3 -> ReLU -> 2x2 average pool stages, global average pooling, and a
linear projection.  Weights use uniform fan-in init (bound 1/sqrt(fan_in)),
biases start at zero, so an all-zero input maps to an all-zero embedding.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from . import tensor as T
from .tensor import Tensor


def uniform_fan_in(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def check_architecture(widths, kernel_size: int, embed_dim: int, section: str = "") -> None:
    """Refuse an architecture no input can build: no stage, a stage width or
    embedding size below 1, an even or non-positive kernel.  Messages name
    each key under `section` (for example `pretrain.`)."""
    if not widths or min(widths) < 1:
        raise ConfigError(f"{section}widths must be one or more sizes >= 1, got {widths}")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ConfigError(f"{section}kernel_size must be odd and positive, got {kernel_size}")
    if embed_dim < 1:
        raise ConfigError(f"{section}embed_dim must be >= 1, got {embed_dim}")


@dataclass(frozen=True)
class EncoderConfig:
    in_height: int
    in_width: int
    in_channels: int = 2
    widths: tuple = (16, 32, 64)
    kernel_size: int = 3
    embed_dim: int = 128

    def __post_init__(self):
        if self.in_channels < 1:
            raise ConfigError(f"bad encoder config: {self}")
        check_architecture(self.widths, self.kernel_size, self.embed_dim)
        h, w = self.in_height, self.in_width
        for i, _ in enumerate(self.widths):
            if h % 2 or w % 2:
                raise ConfigError(
                    f"stage {i} cannot pool {h}x{w}; input {self.in_height}x{self.in_width} "
                    f"must be divisible by 2^{len(self.widths)}"
                )
            h, w = h // 2, w // 2


class Encoder:
    """Conv tower + GAP + linear projection."""

    def __init__(self, config: EncoderConfig, params: dict):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> "Encoder":
        k = config.kernel_size
        params = {}
        c_in = config.in_channels
        for i, c_out in enumerate(config.widths):
            fan_in = c_in * k * k
            params[f"conv{i}.w"] = Tensor(
                uniform_fan_in(rng, (c_out, c_in, k, k), fan_in, dtype), requires_grad=True)
            params[f"conv{i}.b"] = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
            c_in = c_out
        params["proj.w"] = Tensor(
            uniform_fan_in(rng, (c_in, config.embed_dim), c_in, dtype), requires_grad=True)
        params["proj.b"] = Tensor(np.zeros(config.embed_dim, dtype=dtype), requires_grad=True)
        return cls(config, params)

    def forward(self, x: Tensor) -> Tensor:
        """[N, C, P, K] -> [N, embed_dim]."""
        h = x
        for i in range(len(self.config.widths)):
            h = T.conv2d(h, self.params[f"conv{i}.w"], self.params[f"conv{i}.b"])
            h = T.relu(h)
            h = T.avg_pool2d(h)
        h = T.spatial_mean(h)
        return T.add(T.matmul(h, self.params["proj.w"]), self.params["proj.b"])

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())


@dataclass(frozen=True)
class HeadConfig:
    in_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self):
        if min(self.in_dim, self.hidden_dim, self.out_dim) < 1:
            raise ConfigError(f"bad head config: {self}")


class Head:
    """Two-layer MLP: linear -> ReLU -> linear."""

    def __init__(self, config: HeadConfig, params: dict):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: HeadConfig, rng: np.random.Generator, dtype=np.float32) -> "Head":
        params = {
            "fc1.w": Tensor(uniform_fan_in(rng, (config.in_dim, config.hidden_dim),
                                           config.in_dim, dtype), requires_grad=True),
            "fc1.b": Tensor(np.zeros(config.hidden_dim, dtype=dtype), requires_grad=True),
            "fc2.w": Tensor(uniform_fan_in(rng, (config.hidden_dim, config.out_dim),
                                           config.hidden_dim, dtype), requires_grad=True),
            "fc2.b": Tensor(np.zeros(config.out_dim, dtype=dtype), requires_grad=True),
        }
        return cls(config, params)

    def forward(self, x: Tensor) -> Tensor:
        h = T.relu(T.add(T.matmul(x, self.params["fc1.w"]), self.params["fc1.b"]))
        return T.add(T.matmul(h, self.params["fc2.w"]), self.params["fc2.b"])


def prefixed(params: dict, prefix: str) -> dict:
    """Flat view of a param dict under a name prefix (shared Tensor objects)."""
    return {prefix + k: v for k, v in params.items()}
