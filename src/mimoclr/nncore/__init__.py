from . import tensor, layers, losses, optim, checkpoint
