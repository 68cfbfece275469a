"""``repro.nn`` — a from-scratch NumPy autograd + neural-network framework.

This package substitutes for PyTorch / PyTorch-Geometric in the
GraphBinMatch reproduction.  It provides:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff over NumPy,
* layers (Linear, Embedding, LayerNorm, BatchNorm1d, Dropout),
* GNN machinery (GATv2Conv, HeteroConv, segment reductions, SimGNN pooling),
* sequence encoders (LSTM, TransformerEncoder) for the XLIR baselines,
* the Adam optimizer and losses (BCE, triplet).
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock, TransformerEncoder
from repro.nn.gnn import GATv2Conv, HeteroConv, HeteroGNNStack
from repro.nn.layers import BatchNorm1d, Dropout, Embedding, LayerNorm, Linear
from repro.nn.losses import binary_cross_entropy, triplet_margin_loss
from repro.nn.module import Module, ModuleDict, ModuleList, Parameter
from repro.nn.optim import Adam, Optimizer
from repro.nn.pooling import GlobalAttentionPool
from repro.nn.recurrent import LSTM
from repro.nn.tensor import Tensor, no_grad, ones, zeros

__all__ = [
    "functional",
    "Tensor",
    "no_grad",
    "zeros",
    "ones",
    "Module",
    "ModuleList",
    "ModuleDict",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "BatchNorm1d",
    "Dropout",
    "GATv2Conv",
    "HeteroConv",
    "HeteroGNNStack",
    "GlobalAttentionPool",
    "LSTM",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "TransformerEncoder",
    "Adam",
    "Optimizer",
    "binary_cross_entropy",
    "triplet_margin_loss",
]
