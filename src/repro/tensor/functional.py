"""Functional interface over :class:`repro.tensor.Tensor`.

These helpers mirror a small subset of ``torch.nn.functional`` / ``torch``
top-level functions.  They exist so layer and loss code can be written in the
familiar functional style while the differentiation machinery lives on the
``Tensor`` class itself.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast

ArrayLike = Union[float, int, list, tuple, np.ndarray, Tensor]


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# --------------------------------------------------------------------------- #
# Thin wrappers over Tensor methods
# --------------------------------------------------------------------------- #
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _as_tensor(a) + _as_tensor(b)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _as_tensor(a) * _as_tensor(b)


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _as_tensor(a).matmul(_as_tensor(b))


def exp(x: ArrayLike) -> Tensor:
    return _as_tensor(x).exp()


def log(x: ArrayLike) -> Tensor:
    return _as_tensor(x).log()


def sqrt(x: ArrayLike) -> Tensor:
    return _as_tensor(x).sqrt()


def tanh(x: ArrayLike) -> Tensor:
    return _as_tensor(x).tanh()


def sigmoid(x: ArrayLike) -> Tensor:
    return _as_tensor(x).sigmoid()


def relu(x: ArrayLike) -> Tensor:
    return _as_tensor(x).relu()


def leaky_relu(x: ArrayLike, negative_slope: float = 0.01) -> Tensor:
    return _as_tensor(x).leaky_relu(negative_slope)


def softplus(x: ArrayLike) -> Tensor:
    return _as_tensor(x).softplus()


def clip(x: ArrayLike, low: Optional[float] = None, high: Optional[float] = None) -> Tensor:
    return _as_tensor(x).clip(low, high)


def sum(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _as_tensor(x).sum(axis=axis, keepdims=keepdims)


def mean(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    return _as_tensor(x).mean(axis=axis, keepdims=keepdims)


def abs(x: ArrayLike) -> Tensor:  # noqa: A001
    return _as_tensor(x).abs()


def var(x: ArrayLike, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    return _as_tensor(x).var(axis=axis, keepdims=keepdims, ddof=ddof)


def std(x: ArrayLike, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    return _as_tensor(x).std(axis=axis, keepdims=keepdims, ddof=ddof)


# --------------------------------------------------------------------------- #
# Compound / multi-input operations
# --------------------------------------------------------------------------- #
def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum with subgradient split evenly on ties."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    a_mask = (a.data > b.data).astype(out_data.dtype)
    tie = (a.data == b.data).astype(out_data.dtype) * 0.5

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (a_mask + tie))
        b._accumulate(grad * (1.0 - a_mask - tie))

    return Tensor._make(out_data, (a, b), backward)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    return -maximum(-_as_tensor(a), -_as_tensor(b))


def where(condition: Union[np.ndarray, Tensor], a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select elements from ``a`` where ``condition`` is true, else from ``b``."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * cond)
        b._accumulate(grad * (~cond))

    return Tensor._make(out_data, (a, b), backward)


def cat(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        # Offsets are computed here, not per call: under no_grad (every MC
        # forward) the backward never runs.
        start = 0
        for tensor in tensors:
            stop = start + tensor.data.shape[axis]
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])
            start = stop

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            tensor._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout_mask(
    shape: Tuple[int, ...],
    rate: float,
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
) -> np.ndarray:
    """Sample an inverted-dropout mask (scaled by ``1 / keep_prob``).

    ``rng`` is one generator, or a sequence of ``n`` per-sample generators
    for a sample-folded ``shape`` whose leading axis stacks ``n`` equal
    slabs.  Generator ``s`` then fills slab ``s`` of one uniform buffer with
    exactly the numbers a separate ``shape[0] // n``-row draw from it would
    give, and the whole buffer is thresholded and scaled at once.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    if isinstance(rng, np.random.Generator):
        uniform = rng.random(shape)
    else:
        samples = len(rng)
        if shape[0] % samples != 0:
            raise ValueError(
                f"folded input of {shape[0]} rows is not divisible by {samples} samples"
            )
        uniform = np.empty((samples, math.prod(shape) // samples))
        for stream, slab in zip(rng, uniform):
            stream.random(out=slab)
        uniform = uniform.reshape(shape)
    # True * (1 / keep) rounds exactly like 1.0 / keep: the same mask in one pass.
    return np.multiply(uniform < keep, 1.0 / keep)


def gaussian_nll(
    mean: ArrayLike, log_var: ArrayLike, target: ArrayLike, reduce: bool = True
) -> Tensor:
    """Heteroscedastic Gaussian negative log-likelihood (paper Eq. 8, negated).

    ``0.5 * (log sigma^2 + (y - mu)^2 / sigma^2)`` up to the additive
    ``0.5 log(2 pi)`` constant, which does not affect optimization but is
    included so the value matches the MNLL metric definition.
    """
    mean, log_var, target = _as_tensor(mean), _as_tensor(log_var), _as_tensor(target)
    inv_var = (-log_var).exp()
    nll = 0.5 * (log_var + (target - mean) * (target - mean) * inv_var) + 0.5 * float(
        np.log(2.0 * np.pi)
    )
    return nll.mean() if reduce else nll


def l1_loss(prediction: ArrayLike, target: ArrayLike, reduce: bool = True) -> Tensor:
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    loss = (prediction - target).abs()
    return loss.mean() if reduce else loss


def mse_loss(prediction: ArrayLike, target: ArrayLike, reduce: bool = True) -> Tensor:
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    diff = prediction - target
    loss = diff * diff
    return loss.mean() if reduce else loss


def huber_loss(prediction: ArrayLike, target: ArrayLike, delta: float = 1.0) -> Tensor:
    """Huber loss used by several point-prediction baselines."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear = delta * abs_diff - 0.5 * delta * delta
    return where(abs_diff.data <= delta, quadratic, linear).mean()


def pinball_loss(prediction: ArrayLike, target: ArrayLike, quantile: float) -> Tensor:
    """Quantile (pinball) loss for quantile-regression baselines."""
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    diff = target - prediction
    return maximum(quantile * diff, (quantile - 1.0) * diff).mean()
