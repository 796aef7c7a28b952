"""Gradient-descent optimisers for :mod:`repro.nn`."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimiser holding a parameter list and a mutable learning rate."""

    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0; got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimiser received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: list[Tensor], lr: float = 1e-2, *,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with decoupled-style weight decay option."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3, *,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most *max_norm*.

    Returns the pre-clip norm, which callers can log to see training blow up.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
