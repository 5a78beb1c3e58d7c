"""Contrastive pretraining on a shoebox dataset, end to end in ~a minute.

Watch the in-batch retrieval score: with untrained encoders each CSI view
ranks its own CIR partner first at chance level; a learnable-temperature
contrastive loss pushes it toward 1.

    python3 demos/small_pretrain.py
"""

import math
import tempfile

import numpy as np

from mimoclr.chanmodel import Layout, ScenarioConfig, generate_scenario
from mimoclr.datapipe import build_dataset
from mimoclr.pretrain import (PretrainConfig, embedding_spread, encode_batch,
                              evaluate_pairs, init_pretrain_state, load_pairs,
                              pretrain_epoch)

# The dataset and every file the demo writes live in a temporary directory
# that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="smallpre_") as tmp:
    # --- build a small two-scenario dataset on the fly ---------------------
    cfgs = [ScenarioConfig(scenario_id=0, n_ue=150),
            ScenarioConfig(scenario_id=1, n_ue=150, cell_radius=100.0, blockage_prob=0.25)]
    layout = Layout()
    scenarios = [(c, generate_scenario(c, layout, seed=0)) for c in cfgs]
    ds = build_dataset(scenarios, tmp, seed=0, train_fraction=0.8, layout=layout)
    print(f"dataset: {ds.n_records} records, {len(ds.train_indices())} train / "
          f"{len(ds.val_indices())} val")

    # --- two small encoders + one temperature ------------------------------
    config = PretrainConfig(seed=0, batch_size=32, lr=2e-3, widths=(8, 16, 32),
                            embed_dim=64, holdout_fraction=0.1)
    state = init_pretrain_state(config, ds.n_rx * ds.n_tx, ds.n_subcarriers)
    n_params = state.csi_encoder.n_parameters() + state.cir_encoder.n_parameters() + 1
    print(f"dual encoder: {n_params} trainable parameters, tau starts at {state.tau():.3f}")

    train_pairs = load_pairs(ds, ds.train_indices())
    val_pairs = load_pairs(ds, ds.val_indices())

    loss0, ret0 = evaluate_pairs(state, val_pairs, batch_size=32)
    print(f"before training: val loss {loss0:.3f} (log 32 = {math.log(32):.3f}), "
          f"retrieval {ret0:.3f} (chance {1 / 32:.3f})")
    print()

    for epoch in range(20):
        m = pretrain_epoch(state, train_pairs)
        if state.epoch % 2 == 0:
            val_loss, val_ret = evaluate_pairs(state, val_pairs, batch_size=32)
            print(f"epoch {state.epoch:2d}: train {m['train_loss']:.3f}  "
                  f"val {val_loss:.3f}  retrieval@32 {val_ret:.3f}  tau {state.tau():.3f}")

    z = encode_batch(state.csi_encoder, val_pairs.x_csi)
    print()
    print(f"embedding spread on the validation split: {embedding_spread(z):.3f} "
          "(0 would mean a collapsed encoder)")
