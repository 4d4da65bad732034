"""Dropout with optional Monte-Carlo (test-time) behaviour.

The DeepSTUQ paper uses *MC dropout* (Gal & Ghahramani, 2016): the same
Bernoulli masking applied during training is kept active at inference so that
repeated stochastic forward passes approximate samples from the weight
posterior.  :class:`Dropout` therefore has two switches:

* ``module.training`` — the usual train/eval flag (standard dropout), and
* ``mc_active`` — when ``True`` the layer stays stochastic in eval mode.

Models expose :func:`set_mc_dropout` to flip ``mc_active`` on every dropout
layer in a module tree before/after Monte-Carlo sampling.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor.functional import dropout_mask


class Dropout(Module):
    """Inverted dropout: zero activations with probability ``rate`` and rescale.

    Parameters
    ----------
    rate:
        Probability of dropping an activation; must lie in ``[0, 1)``.
    rng:
        Generator used for mask sampling, so stochastic passes are seedable.
    """

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.mc_active = False
        self._rng = rng if rng is not None else np.random.default_rng()
        self._fold_streams: Optional[Sequence[np.random.Generator]] = None

    def reseed(self, rng: np.random.Generator) -> None:
        """Replace the mask generator (used to make MC sampling reproducible)."""
        self._rng = rng

    def set_fold(self, streams: Optional[Sequence[np.random.Generator]]) -> None:
        """Enter (or leave, with ``None``) sample-folded mask mode.

        In folded mode the leading axis of the input is interpreted as
        ``num_samples`` stacked copies of a sub-batch (``n_mc * batch``
        rows).  Each application makes one :func:`dropout_mask` call: it
        fills one ``(num_samples, n)`` uniform buffer, row ``s`` from that
        sample's dedicated ``streams[s]`` generator, and thresholds it once.
        The random numbers consumed for sample ``s`` are therefore identical
        to what a sequential per-sample pass (reseeded with the same
        generator) would consume — this is what makes the vectorized
        Monte-Carlo path bit-equal to the looped one.
        """
        self._fold_streams = list(streams) if streams is not None else None

    @property
    def stochastic(self) -> bool:
        """Whether the layer will apply a random mask on the next call."""
        return self.rate > 0.0 and (self.training or self.mc_active)

    def forward(self, x: Tensor) -> Tensor:
        if not self.stochastic:
            return x
        rng = self._fold_streams if self._fold_streams is not None else self._rng
        return x * Tensor(dropout_mask(x.shape, self.rate, rng))

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate}, mc_active={self.mc_active})"


def set_sample_fold(
    module: Module, streams: Optional[Sequence[np.random.Generator]]
) -> int:
    """Enter/leave sample-folded mask mode on every dropout layer of ``module``.

    Returns the number of dropout layers affected.
    """
    count = 0
    for child in module.modules():
        if isinstance(child, Dropout):
            child.set_fold(streams)
            count += 1
    return count


def reseed_dropout(module: Module, rng: np.random.Generator) -> int:
    """Point every dropout layer of ``module`` at the shared generator ``rng``."""
    count = 0
    for child in module.modules():
        if isinstance(child, Dropout):
            child.reseed(rng)
            count += 1
    return count


@contextlib.contextmanager
def sample_fold(module: Module, streams: Sequence[np.random.Generator]):
    """Context manager wrapping :func:`set_sample_fold` with guaranteed cleanup."""
    set_sample_fold(module, streams)
    try:
        yield module
    finally:
        set_sample_fold(module, None)


def set_mc_dropout(module: Module, enabled: bool) -> int:
    """Enable/disable Monte-Carlo behaviour on every dropout layer of ``module``.

    Returns the number of dropout layers affected, which callers can use to
    assert that a model actually contains stochastic layers before attempting
    MC sampling.
    """
    count = 0
    for child in module.modules():
        if isinstance(child, Dropout):
            child.mc_active = enabled
            count += 1
    return count
