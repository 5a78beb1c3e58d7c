"""A guided walk through the synthetic channel model.

Builds one urban-microcell scenario, looks at a single user's multipath
structure, and sweeps the beam codebook the way a base station would.

    python3 demos/channel_playground.py
"""

import numpy as np

from mimoclr.chanmodel import (Layout, ScenarioConfig, beam_powers, build_codebook,
                               generate_scenario, optimal_beam, steering_vector,
                               synthesize_cir)

# the layout (arrays, tap grid, bandwidth) is the dataset's; the scenario is
# the propagation environment
layout = Layout()
cfg = ScenarioConfig(scenario_id=0, n_ue=200, cell_radius=150.0,
                     blockage_prob=0.35)
print("scenario:", cfg.n_ue, "users in a", cfg.cell_radius, "m cell,")
print("          base station", layout.tx_geometry.rows, "x", layout.tx_geometry.cols,
      "UPA at", cfg.bs_position[2], "m height,",
      f"{cfg.blockage_prob:.0%} LoS blockage probability")
print("          tap resolution:", f"{layout.tap_length_m:.1f} m of path length per tap")
print()

samples = generate_scenario(cfg, layout, seed=0)
los_frac = np.mean([s.los_label for s in samples])
n_paths = [len(s.paths) for s in samples]
print(f"generated {len(samples)} samples: LoS fraction {los_frac:.2f} "
      f"(expected ~{1 - cfg.blockage_prob:.2f}), "
      f"paths per user {min(n_paths)}..{max(n_paths)}")
print()

# one user's channel under the microscope
s = next(x for x in samples if x.los_label)
d = np.linalg.norm(np.asarray(s.ue_position) - np.asarray(cfg.bs_position))
print(f"user at {tuple(round(v, 1) for v in s.ue_position)}, {d:.1f} m from the BS:")
for p in s.paths:
    kind = "LoS " if p.is_los else "scat"
    print(f"  {kind} tap {p.delay_tap:3d} ({p.delay_tap * layout.tap_length_m:6.1f} m) "
          f"|gain| {abs(p.gain):.5f}  AoD az {np.degrees(p.aod_az):+6.1f} deg")
print()

# the delay-domain channel is sparse: energy sits on the path taps only
h = synthesize_cir(s, layout.tx_geometry, layout.rx_geometry, layout.n_taps)
tap_energy = np.sum(np.abs(h) ** 2, axis=(0, 1))
occupied = np.nonzero(tap_energy > 0)[0]
print(f"CIR tensor {h.shape}: {len(occupied)} of {layout.n_taps} taps carry energy "
      f"(taps {occupied.tolist()})")
print()

# beam sweep: received power per codebook entry, argmax = serving beam
cb = build_codebook(layout.tx_geometry)
powers = beam_powers(h, cb)
best = optimal_beam(h, cb)
print(f"codebook sweep over {cb.n_beams} beams:")
bar_max = powers.max()
for b, p in enumerate(powers):
    bar = "#" * int(40 * p / bar_max)
    mark = "  <-- serving beam" if b == best else ""
    print(f"  beam {b:2d}  {p:9.4f}  {bar}{mark}")
assert best == s.beam_label, "stored label disagrees with the sweep"
print()

# steering vectors are unit-norm by construction
v = steering_vector(layout.tx_geometry, az=0.3, el=-0.05)
print(f"steering vector toward (az 0.3, el -0.05): norm {np.linalg.norm(v):.6f}, "
      f"first elements {np.round(v[:3], 3)}")
