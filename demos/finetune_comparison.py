"""Does pretraining help when labels are scarce?  A two-arm comparison.

Pretrains on unlabeled pairs, then fine-tunes the frequency-view encoder on
a small labeled subset for 16-way beam selection -- once starting from the
pretrained weights, once from scratch.  Everything except the encoder
initialization is identical between the arms (same head init, same labeled
subset, same data order).

    python3 demos/finetune_comparison.py
"""

import tempfile

from mimoclr.chanmodel import Layout, ScenarioConfig, generate_scenario
from mimoclr.datapipe import build_dataset
from mimoclr.finetune import FinetuneConfig, improvement_report, run_sweep
from mimoclr.pretrain import PretrainConfig, run_pretraining

# The dataset and every file the demo writes live in a temporary directory
# that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="ftcomp_") as tmp:
    # --- dataset -----------------------------------------------------------
    cfgs = [ScenarioConfig(scenario_id=0, n_ue=150),
            ScenarioConfig(scenario_id=1, n_ue=150, cell_radius=100.0, blockage_prob=0.45)]
    layout = Layout()
    scenarios = [(c, generate_scenario(c, layout, seed=0)) for c in cfgs]
    ds = build_dataset(scenarios, tmp, seed=0, train_fraction=0.8, layout=layout)

    # --- stage 1: pretraining on unlabeled pairs ---------------------------
    # The pretraining config declares the encoder architecture; both arms of
    # stage 2 build their encoder from this one declaration.
    pre_cfg = PretrainConfig(seed=0, batch_size=32, lr=2e-3, max_epochs=15,
                             widths=(8, 16, 32), embed_dim=64)
    print("pretraining 15 epochs...")
    state = run_pretraining(ds, pre_cfg, f"{tmp}/pre")
    print(f"  final val retrieval {state.history[-1]['retrieval']:.3f}, tau {state.tau():.3f}")
    print()

    # --- stage 2: fine-tune with a 60-label budget, both arms --------------
    ft_cfg = FinetuneConfig(batch_size=16, lr=2e-3, epochs=20, label_budget=60,
                            head_hidden=32)
    task = "beam"
    runs = run_sweep(f"{tmp}/manifest.json", task, ("pretrained", "scratch"), range(3), ft_cfg,
                     pre_cfg, f"{tmp}/pre/pretrain.ckpt")
    for r in runs:
        print(f"{r['init']:>10} seed {r['seed']}: beam accuracy {r['val_metric']:.3f} "
              f"(best epoch {r['best_epoch']}, chance 1/16)")
    scores = {init: sorted(r["val_metric"] for r in runs if r["init"] == init)[1]  # median of three
              for init in ("pretrained", "scratch")}
    print()

    rep = improvement_report(scores["pretrained"], scores["scratch"], task)
    print(f"median accuracy: pretrained {rep['pretrained']:.3f} "
          f"vs scratch {rep['scratch']:.3f}")
    if rep["relative_pct"] is not None:
        print(f"relative improvement from pretraining: {rep['relative_pct']:+.2f}%")
    print("(direction matters more than magnitude at this desk scale; small"
          " datasets make single-seed gaps noisy)")
