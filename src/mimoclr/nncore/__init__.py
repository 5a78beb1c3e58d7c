from . import tensor, layers, losses, optim, checkpoint
from .tensor import Tensor
from .layers import Encoder, EncoderConfig, Head, HeadConfig
from .losses import contrastive_loss, cross_entropy_loss, mse_loss
from .optim import AdamW, LRPlateau
from .checkpoint import save_checkpoint, load_checkpoint
