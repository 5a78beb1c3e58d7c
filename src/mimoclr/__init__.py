"""mimoclr: a desk-scale workbench for contrastive CSI/CIR representation
learning over synthetic MIMO channels.

Layers, bottom to top: chanmodel (geometric multipath synthesis), sigproc
(Fourier duality, input shaping, normalization), nncore (autodiff, encoder,
losses, AdamW, checkpoints), config (presets, the section dataclasses and
their one reader), datapipe (binary records + manifest), pretrain
(dual-encoder contrastive training), finetune (downstream tasks and the
pretrained-vs-scratch comparison), cli (operator commands; not imported
here, so `python -m mimoclr.cli` runs it only once).
"""

from . import chanmodel, config, datapipe, finetune, nncore, pretrain, sigproc
from .chanmodel import (ArrayGeometry, ChannelSample, Codebook, Layout, PathParams,
                        ScenarioConfig, beam_powers, build_codebook, generate_scenario,
                        optimal_beam, steering_vector, steering_vectors, synthesize_cir,
                        synthesize_csi)
from .datapipe import Dataset, build_dataset, open_dataset, split_dataset, write_dataset
from .errors import (ConfigError, ContractError, DataError, DegenerateDataError,
                     GenerationError, MimoclrError, TrainingDivergenceError)
# NB: the finetune *function* stays under mimoclr.finetune so the submodule
# name keeps pointing at the module
from .finetune import (FinetuneConfig, FinetuneRun, TaskSpec, evaluate, improvement_report,
                       init_finetune_run, run_sweep)
from .pretrain import (PretrainConfig, PretrainState, init_pretrain_state, pretrain_epoch,
                       run_pretraining)
from .sigproc import NormStats, cir_to_csi, csi_to_cir, fit_norm_stats, normalize, shape_input

__version__ = "0.1.0"
