"""Shared dataset fixtures.

The mini dataset keeps unit tests fast; the desk-scale fixtures are
session-scoped and only built when a test actually pulls them in
(the end-to-end suite in test_acceptance.py).
"""

import time
import tracemalloc

import pytest

from mimoclr import datapipe
from mimoclr.chanmodel import ScenarioConfig, generate_scenario
from mimoclr.config import (dataset_params, load_config, pretrain_config,
                            scenario_configs)
from mimoclr.pretrain import run_pretraining


def _build(tmpdir, cfgs, seed, fraction, cap=None):
    scenarios = [(c, generate_scenario(c, seed)) for c in cfgs]
    if cap is not None:
        keep = datapipe.stratified_cap([len(s) for _, s in scenarios], cap, seed)
        scenarios = [(c, [s[i] for i in idx])
                     for (c, s), idx in zip(scenarios, keep)]
    return datapipe.build_dataset(scenarios, str(tmpdir), seed, fraction)


@pytest.fixture(scope="session")
def mini_root(tmp_path_factory):
    """The directory `mini_dataset` is written to."""
    return tmp_path_factory.mktemp("mini")


@pytest.fixture(scope="session")
def mini_dataset(mini_root):
    """Two tiny scenarios, 120 samples total, desk geometry."""
    cfgs = [ScenarioConfig(scenario_id=0, n_ue=60),
            ScenarioConfig(scenario_id=1, n_ue=60, cell_radius=100.0,
                           blockage_prob=0.25)]
    return _build(mini_root, cfgs, seed=11, fraction=0.8)


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    """The full desk preset: 4 scenarios, 2560 samples."""
    root = tmp_path_factory.mktemp("desk")
    cfg = load_config("desk")
    params = dataset_params(cfg)
    return _build(root, scenario_configs(cfg), seed=params["seed"],
                  fraction=params["train_fraction"], cap=params["cap"])


@pytest.fixture(scope="session")
def desk_pretrained(tmp_path_factory, desk_dataset):
    """One desk-preset pretraining run, shared by the end-to-end tests.

    Returns (state, metrics_rows, wall_seconds, checkpoint_path).
    """
    out = tmp_path_factory.mktemp("desk_pretrain")
    cfg = pretrain_config(load_config("desk"))
    t0 = time.monotonic()
    state, rows = run_pretraining(desk_dataset, cfg, str(out))
    wall = time.monotonic() - t0
    return state, rows, wall, str(out / "pretrain.ckpt")


@pytest.fixture
def traced_peak():
    """fn -> peak bytes that Python and numpy allocate while fn runs
    (tracemalloc: deterministic, unlike resident size)."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
