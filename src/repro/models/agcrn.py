"""AGCRN — the base spatio-temporal architecture of DeepSTUQ.

Adaptive Graph Convolutional Recurrent Network (Bai et al., NeurIPS 2020),
exactly as described in Section IV-A/IV-B of the DeepSTUQ paper:

* the adjacency matrix is *learned* from node embeddings
  (``softmax(ReLU(E E^T))``, Eq. 4);
* the GRU gates replace their linear maps by the node-adaptive graph
  convolution :class:`~repro.nn.AVWGCN` (Eqs. 5-6);
* dropout is applied to the graph-convolution output inside the encoder
  (Eq. 13) and to the decoder input, so Monte-Carlo dropout sampling is
  possible at inference time;
* the decoder consists of *independent* output heads (1x1 convolutions
  realized as per-node linear projections of the final hidden state) —
  a ``mean`` head and, for probabilistic variants, a ``log_var`` head
  (Section IV-C1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.models.base import ForecastModel
from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor import functional as F


class AGCRNCell(Module):
    """GRU cell whose gates are adaptive graph convolutions (paper Eq. 6).

    State and input are node signals of shape ``(batch, num_nodes, dim)``.
    """

    def __init__(
        self,
        num_nodes: int,
        input_dim: int,
        hidden_dim: int,
        embed_dim: int,
        cheb_k: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_nodes = num_nodes
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.gate_conv = nn.AVWGCN(
            input_dim + hidden_dim, 2 * hidden_dim, embed_dim, cheb_k=cheb_k, rng=rng
        )
        self.candidate_conv = nn.AVWGCN(
            input_dim + hidden_dim, hidden_dim, embed_dim, cheb_k=cheb_k, rng=rng
        )

    def init_hidden(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.num_nodes, self.hidden_dim)))

    def prepare(self, adjacency: Tensor, embeddings: Tensor) -> Tuple[tuple, tuple]:
        """Both gates' per-forward terms (see :meth:`repro.nn.AVWGCN.prepare`)."""
        return (
            self.gate_conv.prepare(adjacency, embeddings),
            self.candidate_conv.prepare(adjacency, embeddings),
        )

    def forward(
        self,
        x: Tensor,
        hidden: Tensor,
        prepared: Tuple[tuple, tuple],
        dropout: Optional[nn.Dropout] = None,
    ) -> Tensor:
        """One GRU step; ``prepared`` comes from :meth:`prepare`."""
        gate_terms, candidate_terms = prepared
        combined = F.cat([x, hidden], axis=-1)
        gates = self.gate_conv.propagate(combined, gate_terms)
        if dropout is not None:
            gates = dropout(gates)
        gates = gates.sigmoid()
        update = gates[:, :, : self.hidden_dim]
        reset = gates[:, :, self.hidden_dim :]
        candidate_input = F.cat([x, reset * hidden], axis=-1)
        candidate = self.candidate_conv.propagate(candidate_input, candidate_terms)
        if dropout is not None:
            candidate = dropout(candidate)
        candidate = candidate.tanh()
        return update * hidden + (1.0 - update) * candidate


class AGCRN(ForecastModel):
    """Adaptive Graph Convolutional Recurrent Network with configurable heads.

    Parameters
    ----------
    num_nodes, history, horizon:
        Problem dimensions (Th = horizon = 12 in the paper).
    hidden_dim:
        GRU hidden width per node.
    embed_dim:
        Node-embedding dimension ``d`` of the adaptive adjacency (``d << N``).
    cheb_k:
        Graph-propagation order of the AVWGCN layers.
    num_layers:
        Number of stacked AGCRN cells in the encoder.
    encoder_dropout:
        Dropout rate applied to graph-convolution outputs inside the encoder
        (paper: 0.1 for the large networks, 0.05 for PEMS08).
    decoder_dropout:
        Dropout rate before the decoder heads (paper: 0.2).
    heads:
        Names of the decoder output heads.  ``("mean",)`` gives a point
        model; ``("mean", "log_var")`` the heteroscedastic model used by
        MVE / Combined / DeepSTUQ; ``("lower", "mean", "upper")`` the
        quantile-regression baseline.
    """

    def __init__(
        self,
        num_nodes: int,
        history: int = 12,
        horizon: int = 12,
        hidden_dim: int = 32,
        embed_dim: int = 8,
        cheb_k: int = 2,
        num_layers: int = 1,
        encoder_dropout: float = 0.1,
        decoder_dropout: float = 0.2,
        heads: Sequence[str] = ("mean", "log_var"),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_nodes, history, horizon)
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not heads or len(set(heads)) != len(heads):
            raise ValueError("heads must be a non-empty sequence of unique names")
        rng = rng if rng is not None else np.random.default_rng()
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        self.head_names: Tuple[str, ...] = tuple(heads)

        self.adaptive_adjacency = nn.AdaptiveAdjacency(num_nodes, embed_dim, rng=rng)
        cells = []
        for layer in range(num_layers):
            input_dim = 1 if layer == 0 else hidden_dim
            cells.append(
                AGCRNCell(num_nodes, input_dim, hidden_dim, embed_dim, cheb_k=cheb_k, rng=rng)
            )
        self.cells = nn.ModuleList(cells)
        self.encoder_dropout = nn.Dropout(encoder_dropout, rng=rng)
        self.decoder_dropout = nn.Dropout(decoder_dropout, rng=rng)
        self.heads = nn.ModuleList(
            [nn.Linear(hidden_dim, horizon, rng=rng) for _ in self.head_names]
        )

    # ------------------------------------------------------------------ #
    def encode(self, x: Tensor) -> Tensor:
        """Run the recurrent encoder; returns the final hidden state (B, N, H)."""
        batch_size = x.shape[0]
        adjacency = self.adaptive_adjacency()
        embeddings = self.adaptive_adjacency.embeddings
        # (B, T, N) -> (B, T, N, 1)
        signal = x.unsqueeze(-1) if x.ndim == 3 else x
        states = [cell.init_hidden(batch_size) for cell in self.cells]
        # Node-adaptive weights and supports depend on the parameters only:
        # computed once here, shared by every time step.
        prepared = [cell.prepare(adjacency, embeddings) for cell in self.cells]
        for step in range(self.history):
            layer_input = signal[:, step, :, :]
            for index, cell in enumerate(self.cells):
                states[index] = cell(
                    layer_input, states[index], prepared[index], dropout=self.encoder_dropout
                )
                layer_input = states[index]
        return states[-1]

    def forward(self, x: Union[Tensor, np.ndarray]) -> Union[Tensor, Dict[str, Tensor]]:
        """Forecast all heads.

        Returns a Tensor ``(batch, horizon, num_nodes)`` when a single head is
        configured, otherwise a dict mapping head names to such tensors.
        """
        x = self._validate_input(x)
        hidden = self.encode(x)
        decoded = self.decoder_dropout(hidden)
        outputs: Dict[str, Tensor] = {}
        for name, head in zip(self.head_names, self.heads):
            # (B, N, horizon) -> (B, horizon, N)
            outputs[name] = head(decoded).transpose(0, 2, 1)
        if len(self.head_names) == 1:
            return outputs[self.head_names[0]]
        return outputs

    # ------------------------------------------------------------------ #
    def set_mc_dropout(self, enabled: bool) -> int:
        """Toggle Monte-Carlo dropout on every dropout layer; returns the count."""
        from repro.nn.dropout import set_mc_dropout

        return set_mc_dropout(self, enabled)

    def reseed_dropout(self, rng: np.random.Generator) -> None:
        """Reseed all dropout layers (reproducible MC sampling)."""
        for module in self.modules():
            if isinstance(module, nn.Dropout):
                module.reseed(rng)

    def learned_adjacency(self) -> np.ndarray:
        """The current learned propagation matrix (for inspection/plots)."""
        return self.adaptive_adjacency().numpy()
