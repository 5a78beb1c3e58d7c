"""The frequency/delay duality that the two encoder branches look at.

Both views carry identical information; the point of the contrastive stage
is that the two encoders must agree on WHICH channel they are seeing, not
on how it is parameterized.

    python3 demos/fourier_duality.py
"""

import numpy as np

from mimoclr.chanmodel import (Layout, ScenarioConfig, generate_scenario, synthesize_cir,
                               synthesize_csi)
from mimoclr.sigproc import cir_to_csi, csi_to_cir, fit_norm_stats, normalize, shape_input

layout = Layout()
samples = generate_scenario(ScenarioConfig(scenario_id=0, n_ue=32), layout, seed=4)
s = samples[0]

cir = synthesize_cir(s, layout.tx_geometry, layout.rx_geometry, layout.n_taps)
csi = synthesize_csi(s, layout.tx_geometry, layout.rx_geometry, layout.n_subcarriers)
print(f"CIR {cir.shape} (delay domain)  <->  CSI {csi.shape} (frequency domain)")

# direct frequency-domain synthesis equals the DFT of the delay response
err = np.max(np.abs(csi - cir_to_csi(cir, layout.n_subcarriers)))
print(f"max |direct CSI - DFT(CIR)|      : {err:.3e}")

# and the transform inverts exactly (delays are quantized to the tap grid)
back = csi_to_cir(csi, layout.n_taps)
print(f"max |CIR - IDFT(CSI)|            : {np.max(np.abs(cir - back)):.3e}")

# energy bookkeeping: the unnormalized DFT scales energy by K
ratio = np.sum(np.abs(csi) ** 2) / np.sum(np.abs(cir) ** 2)
print(f"energy ratio CSI/CIR             : {ratio:.9f}  (K = {layout.n_subcarriers})")
print()

# from complex tensors to encoder food: stack re/im as channels over a
# (antenna pair) x (subcarrier) image, then normalize with dataset statistics;
# the CIR view is the same layout over the taps
x = shape_input(csi)
print(f"encoder input {x.shape}: [re/im, rx*tx antenna pair, subcarrier]")
print(f"CIR encoder input {shape_input(cir).shape}: [re/im, rx*tx antenna pair, tap]")

batch = shape_input(np.stack([
    synthesize_csi(t, layout.tx_geometry, layout.rx_geometry, layout.n_subcarriers)
    for t in samples]))
stats = fit_norm_stats(batch)
z = normalize(batch, stats)
print(f"after min-max + standardization  : mean {z.mean():+.3e}, std {z.std():.3f}")
print(f"fitted stats: vmin {stats.vmin:.4f}, vmax {stats.vmax:.4f}, "
      f"mean {stats.mean:.4f}, std {stats.std:.4f}")
