"""Synthetic geometric multipath MIMO channels.

A scenario is a fixed environment: one base station with a uniform planar
array (UPA), a field of point scatterers, and user terminals dropped
uniformly in an annular cell.  Each user sees a direct line-of-sight path
(unless blocked) plus single-bounce scatterer paths.  Path delays are
quantized to the OFDM tap grid, so the delay-domain and frequency-domain
descriptions of every channel are exact Fourier duals of each other.

Axis conventions used throughout the package:
    CIR  h[rx, tx, tap]          complex, shape [n_rx, n_tx, n_taps]
    CSI  H[rx, tx, subcarrier]   complex, shape [n_rx, n_tx, n_sc]
UPA elements are flattened row-major: element (r, c) -> index r * cols + c.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError, GenerationError
from .rngstream import stream

SPEED_OF_LIGHT = 299_792_458.0

MAX_PATHS = 20


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array: rows x cols elements, spacing in wavelengths."""

    rows: int
    cols: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array needs rows, cols >= 1, got {self.rows}x{self.cols}")
        if not self.spacing > 0:
            raise ConfigError(f"element spacing must be > 0, got {self.spacing}")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class PathParams:
    """One propagation path.

    Angles are radians; azimuth is measured in the horizontal plane from the
    array's x-axis, elevation from the horizon (negative = downward).
    Values are stored float32-exact so disk round trips are bit-faithful.
    """

    gain: complex
    delay_tap: int
    aod_az: float
    aod_el: float
    aoa_az: float
    aoa_el: float
    is_los: bool


@dataclass(frozen=True)
class ChannelSample:
    scenario_id: int
    ue_position: tuple  # (x, y, z) meters
    paths: tuple  # of PathParams, length in [1, MAX_PATHS]
    los_label: bool
    beam_label: int
    # complex64 [n_rx, n_tx, len(occupied_taps(sample))]: the CIR at the taps
    # that carry a path, kept by generate_scenario from the beam label's sweep
    # so the writer need not synthesize the CIR again (every other tap is 0).
    # Not part of the sample's value; None on decoded records.  It describes
    # `paths`: a copy with other paths must drop it.
    tap_channels: np.ndarray = field(default=None, compare=False, repr=False)


def occupied_taps(sample: ChannelSample) -> list:
    """The distinct delay taps that carry a path, ascending."""
    return sorted({p.delay_tap for p in sample.paths})


@dataclass(frozen=True)
class Codebook:
    """Transmit beam codebook; `vectors` has one unit-norm beam per column."""

    vectors: np.ndarray  # complex [n_tx, B]

    @property
    def n_beams(self) -> int:
        return self.vectors.shape[1]


def steering_vectors(geom: ArrayGeometry, az, el) -> np.ndarray:
    """UPA array responses toward the directions (az[i], el[i]), one
    unit-norm row each, flattened row-major: shape [len(az), n_elements].

    Element (r, c) gets phase 2*pi*spacing*(r*sin(el) + c*cos(el)*sin(az)).
    Every row is computed elementwise, so it does not depend on the others.
    """
    az = np.asarray(az, dtype=float).reshape(-1, 1, 1)
    el = np.asarray(el, dtype=float).reshape(-1, 1, 1)
    if az.shape != el.shape:
        raise ContractError(f"got {az.shape[0]} azimuths for {el.shape[0]} elevations")
    if not (np.all(np.isfinite(az)) and np.all(np.isfinite(el))):
        raise ContractError("steering angles must be finite")
    r = np.arange(geom.rows)[:, None]
    c = np.arange(geom.cols)[None, :]
    phase = 2.0 * np.pi * geom.spacing * (r * np.sin(el) + c * np.cos(el) * np.sin(az))
    a = np.exp(1j * phase) / np.sqrt(geom.n_elements)
    return a.reshape(az.shape[0], geom.n_elements)


def steering_vector(geom: ArrayGeometry, az: float, el: float) -> np.ndarray:
    """UPA array response toward (az, el): the one-row case of steering_vectors."""
    return steering_vectors(geom, [az], [el])[0]


def _path_steering(sample: ChannelSample, tx: ArrayGeometry, rx: ArrayGeometry):
    """Arrival rows [P, n_rx] and departure rows [P, n_tx] of all paths."""
    paths = sample.paths
    a_rx = steering_vectors(rx, [p.aoa_az for p in paths], [p.aoa_el for p in paths])
    a_tx = steering_vectors(tx, [p.aod_az for p in paths], [p.aod_el for p in paths])
    return a_rx, a_tx


def build_codebook(geom: ArrayGeometry, n_beams: int) -> Codebook:
    """2-D DFT codebook for a UPA: Kronecker product of the rows-point and
    cols-point unitary DFT vectors.  Beam b = p * cols + q has element (r, c)
    equal to exp(-2j*pi*(r*p/rows + c*q/cols)) / sqrt(rows*cols).

    The resulting B = rows*cols columns are orthonormal.
    """
    if n_beams != geom.n_elements:
        raise ConfigError(
            f"codebook size {n_beams} must equal the array element count {geom.n_elements}"
        )
    f_rows = np.exp(-2j * np.pi * np.outer(np.arange(geom.rows), np.arange(geom.rows)) / geom.rows)
    f_cols = np.exp(-2j * np.pi * np.outer(np.arange(geom.cols), np.arange(geom.cols)) / geom.cols)
    vectors = np.kron(f_rows, f_cols) / np.sqrt(geom.n_elements)
    return Codebook(vectors=vectors)


def synthesize_cir(sample: ChannelSample, tx: ArrayGeometry, rx: ArrayGeometry,
                   n_taps: int) -> np.ndarray:
    """Delay-domain channel tensor [n_rx, n_tx, n_taps].

    h[:, :, t] = sum over paths with delay_tap == t of
                 gain * a_rx(aoa) a_tx(aod)^T
    so with unit-norm steering vectors the tensor energy equals the summed
    |gain|^2 whenever the taps are distinct.  Paths are added one at a time
    in their stored order: these are the bytes a dataset stores.
    """
    a_rx, a_tx = _path_steering(sample, tx, rx)
    h = np.zeros((rx.n_elements, tx.n_elements, n_taps), dtype=np.complex128)
    for k, p in enumerate(sample.paths):
        if not 0 <= p.delay_tap < n_taps:
            raise GenerationError(
                f"path {k} has delay_tap {p.delay_tap} outside the grid [0, {n_taps})"
            )
        h[:, :, p.delay_tap] += p.gain * np.outer(a_rx[k], a_tx[k])
    return h


def synthesize_csi(sample: ChannelSample, tx: ArrayGeometry, rx: ArrayGeometry,
                   n_subcarriers: int) -> np.ndarray:
    """Frequency-domain channel [n_rx, n_tx, n_sc]:

    H[:, :, k] = sum_paths gain * a_rx a_tx^T * exp(-2j*pi*k*delay_tap/K)

    computed as one [n_rx*n_tx, P] @ [P, K] product of the paths' spatial
    terms and phase ramps.  Equal (to fp precision) to the K-point DFT of
    synthesize_cir.
    """
    a_rx, a_tx = _path_steering(sample, tx, rx)
    gains = np.array([p.gain for p in sample.paths], dtype=np.complex128)
    taps = np.array([p.delay_tap for p in sample.paths])
    spatial = gains[:, None, None] * a_rx[:, :, None] * a_tx[:, None, :]
    ramps = np.exp(-2j * np.pi * np.outer(taps, np.arange(n_subcarriers)) / n_subcarriers)
    H = spatial.reshape(len(taps), -1).T @ ramps
    return H.reshape(rx.n_elements, tx.n_elements, n_subcarriers)


def beam_powers(csi: np.ndarray, cb: Codebook) -> np.ndarray:
    """Received power of every beam in the codebook, shape [B]: one batched
    product projects every rx antenna's channel onto all beams at once.

    `csi` is any [n_rx, n_tx, n] channel tensor: subcarriers or delay taps.
    Over a CIR's taps the powers are 1/K of those of its K-point CSI.
    """
    if csi.shape[1] != cb.vectors.shape[0]:
        raise ContractError(
            f"codebook tx dimension {cb.vectors.shape[0]} does not match channel {csi.shape}"
        )
    proj = np.matmul(csi.transpose(0, 2, 1), cb.vectors)
    return np.sum(np.abs(proj) ** 2, axis=(0, 1))


def optimal_beam(csi: np.ndarray, cb: Codebook) -> int:
    """Index of the power-maximizing beam; ties broken by lowest index."""
    return int(np.argmax(beam_powers(csi, cb)))


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic environment.  All lengths in meters, angles in radians."""

    scenario_id: int
    n_ue: int
    cell_radius: float = 150.0
    min_distance: float = 15.0
    bs_position: tuple = (0.0, 0.0, 25.0)
    ue_height: float = 1.5
    scatterer_count: tuple = (24, 40)       # size of the fixed scatterer field
    scatterer_height: tuple = (1.0, 12.0)
    path_count: tuple = (3, 10)             # paths per sample incl. LoS
    blockage_prob: float = 0.35
    los_exponent: float = 2.0               # |gain| ~ length^(-eta/2)
    nlos_exponent: float = 3.5
    ref_gain: float = 100.0                 # gain scale: |g| = ref_gain * L^(-eta/2)
    tx_geometry: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(4, 4))
    rx_geometry: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(2, 1))
    n_taps: int = 32
    n_subcarriers: int = 64
    codebook_size: int = 16
    bandwidth_hz: float = 10e6

    @property
    def tap_length_m(self) -> float:
        """Path length represented by one delay tap."""
        return SPEED_OF_LIGHT / self.bandwidth_hz

    def validated(self) -> "ScenarioConfig":
        if self.n_ue <= 0:
            raise ConfigError(f"n_ue must be > 0, got {self.n_ue}")
        lo, hi = self.path_count
        if not (1 <= lo <= hi <= MAX_PATHS):
            raise ConfigError(f"path_count range {self.path_count} must lie in [1, {MAX_PATHS}]")
        slo, shi = self.scatterer_count
        if not (0 <= slo <= shi):
            raise ConfigError(f"bad scatterer_count range {self.scatterer_count}")
        if not 0.0 <= self.blockage_prob <= 1.0:
            raise ConfigError(f"blockage_prob must be in [0, 1], got {self.blockage_prob}")
        if not 0 < self.min_distance < self.cell_radius:
            raise ConfigError(
                f"need 0 < min_distance < cell_radius, got {self.min_distance}, {self.cell_radius}"
            )
        if self.n_taps > self.n_subcarriers:
            raise ConfigError(f"n_taps {self.n_taps} exceeds n_subcarriers {self.n_subcarriers}")
        if self.codebook_size != self.tx_geometry.n_elements:
            raise ConfigError(
                f"codebook_size {self.codebook_size} must equal tx element count "
                f"{self.tx_geometry.n_elements}"
            )
        return self


def _f32(x: float) -> float:
    # Quantize to float32 so path params survive the 32-bit record layout exactly.
    return float(np.float32(x))


def _angles(src: np.ndarray, dst: np.ndarray):
    """(azimuth, elevation) of the direction src -> dst."""
    v = dst - src
    az = float(np.arctan2(v[1], v[0]))
    el = float(np.arctan2(v[2], np.hypot(v[0], v[1])))
    return az, el


def _make_path(gain: complex, tap: int, bs, ue, via, is_los: bool) -> PathParams:
    """Path departing the BS toward `via` and arriving at the UE from `via`.
    For the direct path `via` is not used: departure aims at the UE and
    arrival points back at the BS."""
    if is_los:
        aod_az, aod_el = _angles(bs, ue)
        aoa_az, aoa_el = _angles(ue, bs)
    else:
        aod_az, aod_el = _angles(bs, via)
        aoa_az, aoa_el = _angles(ue, via)
    return PathParams(
        gain=complex(_f32(gain.real), _f32(gain.imag)),
        delay_tap=int(tap),
        aod_az=_f32(aod_az), aod_el=_f32(aod_el),
        aoa_az=_f32(aoa_az), aoa_el=_f32(aoa_el),
        is_los=is_los,
    )


def scatterer_field(config: ScenarioConfig, seed: int) -> np.ndarray:
    """The scenario's fixed scatterer positions, shape [n_scatterers, 3].

    Drawn once per (config, seed); every sample in the scenario shares them,
    which is what couples channel structure to UE position.
    """
    rng = stream(seed, "scatterer-field", config.scenario_id)
    n = int(rng.integers(config.scatterer_count[0], config.scatterer_count[1] + 1))
    r = np.sqrt(rng.uniform(config.min_distance ** 2, config.cell_radius ** 2, size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = rng.uniform(config.scatterer_height[0], config.scatterer_height[1], size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _generate_sample(config: ScenarioConfig, seed: int, index: int,
                     scatterers: np.ndarray, codebook: Codebook) -> ChannelSample:
    rng = stream(seed, "sample", config.scenario_id, index)
    bs = np.asarray(config.bs_position, dtype=float)

    r = np.sqrt(rng.uniform(config.min_distance ** 2, config.cell_radius ** 2))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    ue = np.array([r * np.cos(theta), r * np.sin(theta), config.ue_height])

    blocked = rng.uniform() < config.blockage_prob
    n_target = int(rng.integers(config.path_count[0], config.path_count[1] + 1))

    paths = []
    los_tap = None
    if not blocked:
        d = float(np.linalg.norm(ue - bs))
        los_tap = int(round(d / config.tap_length_m))
        if los_tap >= config.n_taps:
            raise GenerationError(
                f"scenario {config.scenario_id} sample {index}: LoS delay tap {los_tap} "
                f"exceeds the grid of {config.n_taps} taps (distance {d:.1f} m)"
            )
        amp = config.ref_gain * d ** (-config.los_exponent / 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        paths.append(_make_path(amp * np.exp(1j * phase), los_tap, bs, ue, None, is_los=True))

    # Single-bounce candidates, strongest (shortest) first.  Scatterers whose
    # quantized delay collides with the LoS tap are skipped so the LoS path
    # keeps strictly minimal delay; out-of-grid scatterers are skipped too.
    lengths = np.linalg.norm(scatterers - bs, axis=1) + np.linalg.norm(scatterers - ue, axis=1)
    order = np.argsort(lengths, kind="stable")
    for j in order:
        if len(paths) >= n_target:
            break
        tap = int(round(lengths[j] / config.tap_length_m))
        if tap >= config.n_taps or (los_tap is not None and tap == los_tap):
            continue
        amp = config.ref_gain * lengths[j] ** (-config.nlos_exponent / 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        paths.append(_make_path(amp * np.exp(1j * phase), tap, bs, ue, scatterers[j],
                                is_los=False))

    if not paths:
        raise GenerationError(
            f"scenario {config.scenario_id} sample {index}: no representable paths "
            f"within the {config.n_taps}-tap grid"
        )
    paths.sort(key=lambda p: (p.delay_tap, not p.is_los))

    sample = ChannelSample(
        scenario_id=config.scenario_id,
        ue_position=tuple(float(x) for x in ue),
        paths=tuple(paths),
        los_label=los_tap is not None,
        beam_label=0,
    )
    # By Parseval a beam's power summed over the subcarriers is n_subcarriers
    # times its power summed over the taps, so sweeping the taps that carry a
    # path gives the same argmax as sweeping the CSI, at a fraction of the cost.
    cir = synthesize_cir(sample, config.tx_geometry, config.rx_geometry, config.n_taps)
    occupied = cir[:, :, occupied_taps(sample)]
    return replace(sample, beam_label=optimal_beam(occupied, codebook),
                   tap_channels=occupied.astype(np.complex64))


def generate_scenario(config: ScenarioConfig, seed: int) -> list:
    """Generate all ChannelSamples of one scenario.

    Pure function of (config, seed): every sample draws from its own
    counter-based stream, so the output is independent of generation order.
    """
    config = config.validated()
    codebook = build_codebook(config.tx_geometry, config.codebook_size)
    scatterers = scatterer_field(config, seed)
    return [
        _generate_sample(config, seed, i, scatterers, codebook)
        for i in range(config.n_ue)
    ]
