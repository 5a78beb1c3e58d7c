"""Channel model tests: steering vectors, codebooks, synthesis, beam labels,
and scenario generation.  Expected values come from independent brute-force
oracles implemented here, not from the library code under test."""

import dataclasses

import numpy as np
import pytest

from mimoclr import chanmodel
from mimoclr.chanmodel import (MAX_PATHS, ArrayGeometry, ChannelSample, Codebook, Layout,
                               PathParams, ScenarioConfig, beam_powers, build_codebook,
                               generate_scenario, optimal_beam, scatterer_field, steering_vector,
                               steering_vectors, synthesize_cir, synthesize_csi)
from mimoclr.errors import ConfigError, ContractError
from mimoclr.rngstream import stream


# ---------------------------------------------------------------- oracles

def steering_oracle(geom, az, el):
    """Element-by-element loop; row-major flatten done with an explicit counter."""
    out = np.empty(geom.rows * geom.cols, dtype=complex)
    i = 0
    for r in range(geom.rows):
        for c in range(geom.cols):
            phase = 2.0 * np.pi * geom.spacing * (
                r * np.sin(el) + c * np.cos(el) * np.sin(az))
            out[i] = np.exp(1j * phase)
            i += 1
    return out / np.sqrt(geom.rows * geom.cols)


def dft_beam_oracle(geom, b):
    """Beam b = p*cols + q of the 2-D DFT codebook, element by element."""
    p, q = divmod(b, geom.cols)
    out = np.empty(geom.rows * geom.cols, dtype=complex)
    for r in range(geom.rows):
        for c in range(geom.cols):
            out[r * geom.cols + c] = np.exp(-2j * np.pi * (r * p / geom.rows
                                                           + c * q / geom.cols))
    return out / np.sqrt(geom.rows * geom.cols)


def beam_power_oracle(csi, vec):
    """P = sum_k ||H[:, :, k] @ vec||^2 with plain loops."""
    total = 0.0
    for k in range(csi.shape[2]):
        y = csi[:, :, k] @ vec
        total += float(np.sum(np.abs(y) ** 2))
    return total


def best_beam_oracle(csi, cb):
    powers = [beam_power_oracle(csi, cb.vectors[:, b]) for b in range(cb.n_beams)]
    return int(np.argmax(powers))


def random_sample(rng, n_paths=4, n_taps=32, replace=False):
    taps = rng.choice(n_taps, size=n_paths, replace=replace)
    paths = tuple(
        PathParams(gain=complex(np.float32(rng.normal()), np.float32(rng.normal())),
                   delay_tap=int(t),
                   aod_az=float(np.float32(rng.uniform(-np.pi, np.pi))),
                   aod_el=float(np.float32(rng.uniform(-0.4, 0.4))),
                   aoa_az=float(np.float32(rng.uniform(-np.pi, np.pi))),
                   aoa_el=float(np.float32(rng.uniform(-0.4, 0.4))),
                   is_los=(i == 0))
        for i, t in enumerate(taps))
    return ChannelSample(scenario_id=0, ue_position=(10.0, 5.0, 1.5),
                         paths=paths, los_label=True, beam_label=0)


# Reference formulas for what a dataset stores: one steering vector per
# direction and one path at a time.  Stored CIR bytes must equal
# cir_per_path_oracle exactly, and stored beam labels must equal the einsum
# sweep of the path-by-path CSI.

def steering_single_oracle(geom, az, el):
    """The single-direction steering formula, operation for operation."""
    r = np.arange(geom.rows)[:, None]
    c = np.arange(geom.cols)[None, :]
    phase = 2.0 * np.pi * geom.spacing * (r * np.sin(el) + c * np.cos(el) * np.sin(az))
    a = np.exp(1j * phase) / np.sqrt(geom.n_elements)
    return a.reshape(-1)


def cir_per_path_oracle(sample, tx, rx, n_taps):
    h = np.zeros((rx.n_elements, tx.n_elements, n_taps), dtype=np.complex128)
    for p in sample.paths:
        a_rx = steering_single_oracle(rx, p.aoa_az, p.aoa_el)
        a_tx = steering_single_oracle(tx, p.aod_az, p.aod_el)
        h[:, :, p.delay_tap] += p.gain * np.outer(a_rx, a_tx)
    return h


def einsum_label_oracle(sample, tx, rx, n_sc, cb):
    k = np.arange(n_sc)
    H = np.zeros((rx.n_elements, tx.n_elements, n_sc), dtype=np.complex128)
    for p in sample.paths:
        a_rx = steering_single_oracle(rx, p.aoa_az, p.aoa_el)
        a_tx = steering_single_oracle(tx, p.aod_az, p.aod_el)
        phase = np.exp(-2j * np.pi * k * p.delay_tap / n_sc)
        H += p.gain * np.outer(a_rx, a_tx)[:, :, None] * phase[None, None, :]
    proj = np.einsum("rtk,tb->rkb", H, cb.vectors)
    return int(np.argmax(np.sum(np.abs(proj) ** 2, axis=(0, 1))))


def _f32(x):
    return float(np.float32(x))


def angles_oracle(src, dst):
    """(azimuth, elevation) of the direction src -> dst, one scalar call each."""
    v = dst - src
    return (float(np.arctan2(v[1], v[0])),
            float(np.arctan2(v[2], np.hypot(v[0], v[1]))))


def path_oracle(gain, tap, bs, ue, via, is_los):
    aod_az, aod_el = angles_oracle(bs, ue if is_los else via)
    aoa_az, aoa_el = angles_oracle(ue, bs if is_los else via)
    return PathParams(gain=complex(_f32(gain.real), _f32(gain.imag)), delay_tap=int(tap),
                      aod_az=_f32(aod_az), aod_el=_f32(aod_el),
                      aoa_az=_f32(aoa_az), aoa_el=_f32(aoa_el), is_los=is_los)


def generate_sample_oracle(config, layout, seed, index, scatterers, codebook):
    """One sample, one Python pipeline: its stream's draws, then path by
    path, each scatterer tried in turn, the CIR of cir_per_path_oracle."""
    rng = stream(seed, "sample", config.scenario_id, index)
    bs = np.asarray(config.bs_position, dtype=float)
    r = np.sqrt(rng.uniform(config.min_distance ** 2, config.cell_radius ** 2))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    ue = np.array([r * np.cos(theta), r * np.sin(theta), config.ue_height])
    blocked = rng.uniform() < config.blockage_prob
    n_target = int(rng.integers(config.path_count[0], config.path_count[1] + 1))
    paths, los_tap = [], None
    if not blocked:
        d = float(np.linalg.norm(ue - bs))
        los_tap = int(round(d / layout.tap_length_m))
        amp = config.ref_gain * d ** (-config.los_exponent / 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        paths.append(path_oracle(amp * np.exp(1j * phase), los_tap, bs, ue, None, True))
    lengths = np.linalg.norm(scatterers - bs, axis=1) + np.linalg.norm(scatterers - ue, axis=1)
    for j in np.argsort(lengths, kind="stable"):
        if len(paths) >= n_target:
            break
        tap = int(round(lengths[j] / layout.tap_length_m))
        if tap >= layout.n_taps or tap == los_tap:
            continue
        amp = config.ref_gain * lengths[j] ** (-config.nlos_exponent / 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        paths.append(path_oracle(amp * np.exp(1j * phase), tap, bs, ue, scatterers[j], False))
    paths.sort(key=lambda p: (p.delay_tap, not p.is_los))
    sample = ChannelSample(scenario_id=config.scenario_id,
                           ue_position=tuple(float(x) for x in ue), paths=tuple(paths),
                           los_label=los_tap is not None, beam_label=0)
    cir = cir_per_path_oracle(sample, layout.tx_geometry, layout.rx_geometry, layout.n_taps)
    occupied = cir[:, :, sorted({p.delay_tap for p in paths})]
    sample = dataclasses.replace(sample, beam_label=optimal_beam(occupied, codebook))
    return sample, occupied.astype(np.complex64)


DESK = Layout(tx_geometry=ArrayGeometry(4, 4), rx_geometry=ArrayGeometry(2, 1),
              n_taps=32, n_subcarriers=64)
PAPER = Layout(tx_geometry=ArrayGeometry(8, 8), rx_geometry=ArrayGeometry(2, 2),
               n_taps=64, n_subcarriers=256, bandwidth_hz=2e7)


# ---------------------------------------------------------------- geometry

def test_array_geometry_validation():
    with pytest.raises(ConfigError):
        ArrayGeometry(0, 4)
    with pytest.raises(ConfigError):
        ArrayGeometry(4, 4, spacing=0.0)
    assert ArrayGeometry(2, 3).n_elements == 6


def test_steering_single_element_is_one():
    a = steering_vector(ArrayGeometry(1, 1), 0.7, -0.2)
    assert a.shape == (1,)
    assert a[0] == pytest.approx(1.0)


def test_steering_broadside_all_equal():
    geom = ArrayGeometry(4, 4)
    a = steering_vector(geom, 0.0, 0.0)
    assert np.allclose(a, 1.0 / 4.0)


def test_steering_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        geom = ArrayGeometry(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                             spacing=float(rng.uniform(0.25, 1.0)))
        az = float(rng.uniform(-np.pi, np.pi))
        el = float(rng.uniform(-np.pi / 2, np.pi / 2))
        got = steering_vector(geom, az, el)
        want = steering_oracle(geom, az, el)
        assert np.allclose(got, want, atol=1e-12)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


def test_steering_rejects_nonfinite():
    with pytest.raises(ContractError):
        steering_vector(ArrayGeometry(2, 2), np.nan, 0.0)


# At spacing 0.5 a regrouped spacing factor scales by a power of two, which is
# exact, so only the 0.37 array sees that operation order.
@pytest.mark.parametrize("geom", [ArrayGeometry(4, 4), ArrayGeometry(2, 1),
                                  ArrayGeometry(8, 8), ArrayGeometry(2, 2),
                                  ArrayGeometry(3, 5, spacing=0.37)],
                         ids=["desk-tx", "desk-rx", "paper-tx", "paper-rx", "odd-spacing"])
@pytest.mark.parametrize("n", [1, 2, 7, MAX_PATHS])
def test_steering_rows_bit_equal_single_calls(geom, n):
    # Each row must be the single-direction bits wherever it sits in the
    # batch: stored CIRs are built from these rows.
    rng = np.random.default_rng(1000 + n)
    for _ in range(10):
        az = np.float32(rng.uniform(-np.pi, np.pi, n)).astype(float)
        el = np.float32(rng.uniform(-np.pi / 2, np.pi / 2, n)).astype(float)
        az[0] = 0.0
        el[-1] = np.pi / 2
        if n > 2:
            el[1] = -np.pi / 2
        rows = steering_vectors(geom, az, el)
        assert rows.shape == (n, geom.n_elements)
        for i in range(n):
            one = steering_vector(geom, float(az[i]), float(el[i]))
            assert rows[i].tobytes() == one.tobytes()
            assert rows[i].tobytes() == steering_single_oracle(geom, az[i], el[i]).tobytes()


def test_steering_rows_reject_nonfinite():
    geom = ArrayGeometry(2, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError):
            steering_vectors(geom, [0.1, bad, 0.3], [0.0, 0.0, 0.0])
        with pytest.raises(ContractError):
            steering_vectors(geom, [0.1, 0.2, 0.3], [0.0, 0.0, bad])
    with pytest.raises(ContractError):
        steering_vectors(geom, [0.1, 0.2], [0.0])


# ---------------------------------------------------------------- codebook

def test_codebook_matches_elementwise_oracle():
    geom = ArrayGeometry(4, 4)
    cb = build_codebook(geom)
    assert cb.vectors.shape == (16, 16)
    for b in range(16):
        assert np.allclose(cb.vectors[:, b], dft_beam_oracle(geom, b), atol=1e-12)


def test_codebook_orthonormal():
    for rows, cols in [(4, 4), (2, 1), (3, 5)]:
        geom = ArrayGeometry(rows, cols)
        cb = build_codebook(geom)
        gram = cb.vectors.conj().T @ cb.vectors
        assert np.allclose(gram, np.eye(rows * cols), atol=1e-12)


# ---------------------------------------------------------------- synthesis

def test_cir_single_path_energy():
    tx, rx = ArrayGeometry(4, 4), ArrayGeometry(2, 1)
    p = PathParams(gain=2.0 - 1.0j, delay_tap=5, aod_az=0.3, aod_el=-0.1,
                   aoa_az=-0.8, aoa_el=0.05, is_los=True)
    s = ChannelSample(0, (1.0, 2.0, 1.5), (p,), True, 0)
    h = synthesize_cir(s, tx, rx, 16)
    assert h.shape == (2, 16, 16)
    assert np.all(h[:, :, np.arange(16) != 5] == 0)
    # unit-norm steering vectors: tensor energy equals |gain|^2
    assert np.sum(np.abs(h) ** 2) == pytest.approx(abs(p.gain) ** 2, rel=1e-12)
    a_rx = steering_oracle(rx, p.aoa_az, p.aoa_el)
    a_tx = steering_oracle(tx, p.aod_az, p.aod_el)
    assert np.allclose(h[:, :, 5], p.gain * np.outer(a_rx, a_tx), atol=1e-12)


def test_cir_same_tap_accumulates():
    tx = rx = ArrayGeometry(2, 2)
    mk = lambda g: PathParams(gain=g, delay_tap=3, aod_az=0.1, aod_el=0.0,
                              aoa_az=0.2, aoa_el=0.0, is_los=False)
    s2 = ChannelSample(0, (0, 0, 0), (mk(1.0), mk(-1.0)), False, 0)
    h = synthesize_cir(s2, tx, rx, 8)
    assert np.allclose(h, 0.0, atol=1e-14)


def test_cir_rejects_out_of_grid_tap():
    tx = rx = ArrayGeometry(2, 2)
    p = PathParams(gain=1.0, delay_tap=8, aod_az=0, aod_el=0, aoa_az=0, aoa_el=0,
                   is_los=False)
    from mimoclr.errors import GenerationError
    with pytest.raises(GenerationError):
        synthesize_cir(ChannelSample(0, (0, 0, 0), (p,), False, 0), tx, rx, 8)


def test_csi_equals_dft_of_cir():
    # frequency-domain synthesis vs an explicit two-index DFT loop of the CIR,
    # at desk and at paper geometry (BLAS takes other kernels at each)
    rng = np.random.default_rng(11)
    for geo, n_samples in ((DESK, 5), (PAPER, 3)):
        tx, rx = geo.tx_geometry, geo.rx_geometry
        n_taps, n_sc = geo.n_taps, geo.n_subcarriers
        for _ in range(n_samples):
            s = random_sample(rng, n_paths=int(rng.integers(1, 8)), n_taps=n_taps)
            cir = synthesize_cir(s, tx, rx, n_taps)
            csi = synthesize_csi(s, tx, rx, n_sc)
            want = np.zeros((rx.n_elements, tx.n_elements, n_sc), dtype=complex)
            for k in range(n_sc):
                for t in range(n_taps):
                    want[:, :, k] += cir[:, :, t] * np.exp(-2j * np.pi * k * t / n_sc)
            assert np.max(np.abs(csi - want)) < 1e-9


@pytest.mark.parametrize("geo", [DESK, PAPER], ids=["desk", "paper"])
def test_cir_bit_equal_per_path_oracle(geo):
    tx, rx, n_taps = geo.tx_geometry, geo.rx_geometry, geo.n_taps
    samples = generate_scenario(ScenarioConfig(scenario_id=3, n_ue=50), geo, seed=4)
    # Many paths on few taps, so the order in which paths are added shows.
    rng = np.random.default_rng(23)
    samples += [random_sample(rng, n_paths=MAX_PATHS, n_taps=3, replace=True)
                for _ in range(10)]
    for s in samples:
        got = synthesize_cir(s, tx, rx, n_taps)
        assert got.tobytes() == cir_per_path_oracle(s, tx, rx, n_taps).tobytes()


@pytest.mark.parametrize("geo", [DESK, PAPER], ids=["desk", "paper"])
def test_generated_labels_equal_einsum_oracle(geo):
    cfg = ScenarioConfig(scenario_id=1, n_ue=50)
    cb = build_codebook(geo.tx_geometry)
    for s in generate_scenario(cfg, geo, seed=8):
        assert s.beam_label == einsum_label_oracle(s, geo.tx_geometry, geo.rx_geometry,
                                                   geo.n_subcarriers, cb)


# ---------------------------------------------------------------- beams

@pytest.mark.parametrize("geo", [DESK, PAPER], ids=["desk", "paper"])
def test_tap_sweep_is_csi_sweep_over_k(geo):
    # Parseval: over the K subcarriers a beam collects K times its power over
    # the taps, and only taps that carry a path hold any.  Many paths on
    # three taps cover paths that add coherently on one tap.
    tx, rx, n_taps, k = geo.tx_geometry, geo.rx_geometry, geo.n_taps, geo.n_subcarriers
    cb = build_codebook(tx)
    rng = np.random.default_rng(29)
    samples = [random_sample(rng, n_paths=int(rng.integers(1, 8)), n_taps=n_taps)
               for _ in range(10)]
    samples += [random_sample(rng, n_paths=MAX_PATHS, n_taps=3, replace=True)
                for _ in range(10)]
    samples += generate_scenario(ScenarioConfig(scenario_id=2, n_ue=20), geo, seed=6)
    for s in samples:
        cir = synthesize_cir(s, tx, rx, n_taps)
        want = beam_powers(synthesize_csi(s, tx, rx, k), cb)
        assert np.max(np.abs(beam_powers(cir, cb) * k - want)) <= 1e-12 * want.max()
        occupied = cir[:, :, sorted({p.delay_tap for p in s.paths})]
        assert optimal_beam(occupied, cb) == int(np.argmax(want))


def test_generate_builds_no_csi(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generate_scenario synthesized a CSI")
    monkeypatch.setattr(chanmodel, "synthesize_csi", refuse)
    for geo in (DESK, PAPER):
        samples = generate_scenario(ScenarioConfig(scenario_id=0, n_ue=5), geo, seed=3)
        assert len(samples) == 5


def test_beam_powers_and_optimal_match_brute_force():
    rng = np.random.default_rng(19)
    for geo, n_samples in ((DESK, 20), (PAPER, 4)):
        tx, rx, n_beams = geo.tx_geometry, geo.rx_geometry, geo.tx_geometry.n_elements
        cb = build_codebook(tx)
        for _ in range(n_samples):
            s = random_sample(rng, n_paths=int(rng.integers(1, 8)), n_taps=geo.n_taps)
            csi = synthesize_csi(s, tx, rx, geo.n_subcarriers)
            powers = beam_powers(csi, cb)
            want = np.array([beam_power_oracle(csi, cb.vectors[:, b]) for b in range(n_beams)])
            assert np.allclose(powers, want, rtol=1e-12)
            assert optimal_beam(csi, cb) == int(np.argmax(want))


def test_optimal_beam_tie_breaks_low():
    # identity codebook on a 1x2 "array" with equal power in both beams
    cb = Codebook(vectors=np.eye(2, dtype=complex))
    csi = np.ones((1, 2, 4), dtype=complex)
    assert optimal_beam(csi, cb) == 0


def test_aligned_channel_selects_each_beam():
    # Channel built as outer(a_rx, conj(s_b)): transmitting s_b is then
    # perfectly matched, so the label must equal b for every codebook column.
    tx, rx = ArrayGeometry(4, 4), ArrayGeometry(2, 1)
    cb = build_codebook(tx)
    a_rx = steering_oracle(rx, 0.4, -0.1)
    for b in range(16):
        H = np.outer(a_rx, np.conj(cb.vectors[:, b]))[:, :, None] * np.ones(64)
        assert optimal_beam(H, cb) == b


# ---------------------------------------------------------------- scenarios

def desk_scenario(**kw):
    base = dict(scenario_id=0, n_ue=40)
    base.update(kw)
    return ScenarioConfig(**base)


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        desk_scenario(blockage_prob=1.5)
    with pytest.raises(ConfigError):
        desk_scenario(n_ue=0)
    with pytest.raises(ConfigError):
        desk_scenario(path_count=(0, 5))


@pytest.mark.parametrize("field,value", [("n_taps", 0), ("n_taps", 128), ("bandwidth_hz", 0.0),
                                         ("bandwidth_hz", -1.0e7)])
def test_layout_validation(field, value):
    with pytest.raises(ConfigError, match=f"dataset.geometry.{field}"):
        Layout(**{field: value})


def test_scatterer_field_fixed_per_scenario():
    cfg = desk_scenario()
    f1 = scatterer_field(cfg, seed=5)
    f2 = scatterer_field(cfg, seed=5)
    assert np.array_equal(f1, f2)
    assert cfg.scatterer_count[0] <= len(f1) <= cfg.scatterer_count[1]
    r = np.hypot(f1[:, 0], f1[:, 1])
    assert np.all(r >= cfg.min_distance) and np.all(r <= cfg.cell_radius)
    assert not np.array_equal(f1, scatterer_field(cfg, seed=6))


def test_generate_scenario_deterministic():
    cfg = desk_scenario()
    a = generate_scenario(cfg, DESK, seed=3)
    b = generate_scenario(cfg, DESK, seed=3)
    assert a == b
    assert len(a) == cfg.n_ue


def test_generated_samples_well_formed():
    cfg = desk_scenario(n_ue=60)
    samples = generate_scenario(cfg, DESK, seed=2)
    for s in samples:
        assert 1 <= len(s.paths) <= 20
        taps = [p.delay_tap for p in s.paths]
        assert all(0 <= t < DESK.n_taps for t in taps)
        assert taps == sorted(taps)
        n_los = sum(p.is_los for p in s.paths)
        assert n_los == (1 if s.los_label else 0)
        if s.los_label:
            # the direct path has strictly minimal delay
            los_tap = next(p.delay_tap for p in s.paths if p.is_los)
            assert all(t != los_tap for t in taps if not any(
                p.delay_tap == t and p.is_los for p in s.paths))
        r = np.hypot(s.ue_position[0], s.ue_position[1])
        assert cfg.min_distance <= r <= cfg.cell_radius
        assert s.ue_position[2] == cfg.ue_height


GENERATION_CASES = {
    "preset-like": {},
    "never-blocked": {"blockage_prob": 0.0},
    "always-blocked": {"blockage_prob": 1.0},
    "one-path": {"path_count": (1, 1)},
    "max-paths": {"path_count": (MAX_PATHS, MAX_PATHS)},
    "los-only": {"scatterer_count": (0, 0), "blockage_prob": 0.0},
    # a small cell crowded with scatterers: many paths share a tap
    "dense": {"cell_radius": 60.0, "scatterer_count": (150, 200),
              "path_count": (MAX_PATHS, MAX_PATHS)},
}


@pytest.mark.parametrize("geo", [DESK, PAPER], ids=["desk", "paper"])
@pytest.mark.parametrize("case", list(GENERATION_CASES))
def test_generate_scenario_equals_per_sample_oracle(geo, case):
    cb = build_codebook(geo.tx_geometry)
    shared = 0
    for seed in (0, 4, 13):
        cfg = ScenarioConfig(scenario_id=seed % 3, n_ue=30, **GENERATION_CASES[case])
        scatterers = scatterer_field(cfg, seed)
        for i, s in enumerate(generate_scenario(cfg, geo, seed)):
            want, taps = generate_sample_oracle(cfg, geo, seed, i, scatterers, cb)
            # repr spells every float exactly, so equal reprs are equal bits
            assert repr(s) == repr(want)
            assert s == want
            assert s.tap_channels.tobytes() == taps.tobytes()
            assert s.tap_channels.shape == taps.shape and s.tap_channels.dtype == np.complex64
            shared += len(s.paths) - len({p.delay_tap for p in s.paths})
    if case == "dense":
        assert shared > 3 * 30 * MAX_PATHS // 2   # most paths share their tap


def test_los_fraction_tracks_blockage():
    cfg = desk_scenario(n_ue=400, blockage_prob=0.3)
    samples = generate_scenario(cfg, DESK, seed=9)
    frac = np.mean([s.los_label for s in samples])
    assert abs(frac - 0.7) < 0.08


def test_generated_beam_labels_match_brute_force():
    cfg = desk_scenario(n_ue=50)
    cb = build_codebook(DESK.tx_geometry)
    for s in generate_scenario(cfg, DESK, seed=21):
        csi = synthesize_csi(s, DESK.tx_geometry, DESK.rx_geometry, DESK.n_subcarriers)
        assert s.beam_label == best_beam_oracle(csi, cb)


def test_different_seeds_differ():
    cfg = desk_scenario()
    assert generate_scenario(cfg, DESK, 0) != generate_scenario(cfg, DESK, 1)
