"""mimoclr: a desk-scale workbench for contrastive CSI/CIR representation
learning over synthetic MIMO channels.

Layers, bottom to top: chanmodel (geometric multipath synthesis), sigproc
(Fourier duality, input shaping, normalization), nncore (autodiff, encoder,
losses, AdamW, checkpoints), config (presets, the section dataclasses and
their one reader), datapipe (binary records + manifest), pretrain
(dual-encoder contrastive training), finetune (downstream tasks and the
pretrained-vs-scratch comparison), cli (operator commands; not imported
here, so `python -m mimoclr.cli` runs it only once).  Import the modules
(`from mimoclr import datapipe`); the package re-exports no names.
"""

from . import chanmodel, config, datapipe, finetune, nncore, pretrain, sigproc

__version__ = "0.1.0"
