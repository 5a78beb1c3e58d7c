"""Shared dataset fixtures.

The mini dataset keeps unit tests fast; the desk-scale fixtures are
session-scoped and only built when a test actually pulls them in
(the end-to-end suite in test_acceptance.py).
"""

import time
import tracemalloc

import pytest

from mimoclr import datapipe
from mimoclr.chanmodel import Layout, ScenarioConfig, generate_scenario
from mimoclr.config import dataset_config, load_config, pretrain_config
from mimoclr.pretrain import run_pretraining


def _build(tmpdir, cfgs, layout, seed, fraction):
    scenarios = [(c, generate_scenario(c, layout, seed)) for c in cfgs]
    return datapipe.build_dataset(scenarios, str(tmpdir), seed, fraction, layout)


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
    return _build(mini_root, cfgs, Layout(), seed=11, fraction=0.8)


@pytest.fixture(scope="session")
def desk_root(tmp_path_factory):
    """The directory `desk_dataset` is written to."""
    return tmp_path_factory.mktemp("desk")


@pytest.fixture(scope="session")
def desk_dataset(desk_root):
    """The full desk preset: 4 scenarios, 2560 samples."""
    ds = dataset_config(load_config("desk"))
    return _build(desk_root, ds.scenarios, ds.geometry, seed=ds.seed,
                  fraction=ds.train_fraction)


@pytest.fixture(scope="session")
def desk_pretrained(tmp_path_factory, desk_dataset):
    """One desk-preset pretraining run, shared by the end-to-end tests.

    Returns (state, wall_seconds, checkpoint_path); state.history holds
    the metrics rows.
    """
    out = tmp_path_factory.mktemp("desk_pretrain")
    cfg = pretrain_config(load_config("desk"))
    t0 = time.monotonic()
    state = run_pretraining(desk_dataset, cfg, str(out))
    wall = time.monotonic() - t0
    return state, wall, str(out / "pretrain.ckpt")


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
