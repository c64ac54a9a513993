"""Dense symmetric derivative tensors and Taylor-model arithmetic.

Everything here is a pure function of value-type inputs.  Derivative
tensors of order ``i`` over R^n are stored as dense numpy arrays of shape
``(n,) * i`` with full symmetry (no packed storage).  At the scales this
package targets (degree <= 3; n in the tens for order-3 tensors, up to a
few hundred for degree-2 runs) the simplicity is worth more than the
memory.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DerivativeBundle",
    "RegularizedModel",
    "taylor_eval",
    "taylor_decrement",
    "model_eval",
    "model_decrement",
    "shifted_model_derivatives",
    "regularizer_derivative",
    "contract",
    "contract_full",
    "symmetrize",
    "operator_norm",
]


def contract(tensor: np.ndarray, s: np.ndarray, times: int) -> np.ndarray:
    """Contract `times` copies of the vector `s` into the trailing axes."""
    out = np.asarray(tensor, dtype=float)
    for _ in range(times):
        out = out @ s
    return out


def contract_full(tensor: np.ndarray, s: np.ndarray) -> float:
    """Apply an order-i tensor to i copies of `s`, yielding a scalar."""
    return float(contract(tensor, s, np.ndim(tensor)))


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average over all index permutations."""
    t = np.asarray(tensor, dtype=float)
    if t.ndim <= 1:
        return t
    perms = list(itertools.permutations(range(t.ndim)))
    return sum(np.transpose(t, p) for p in perms) / len(perms)


@functools.lru_cache(maxsize=32)
def _unit_directions(n: int, samples: int, seed: int) -> np.ndarray:
    """`samples` seeded random unit vectors plus the coordinate axes, read-only."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u = np.vstack([u, np.eye(n)])
    u.flags.writeable = False
    return u


def operator_norm(tensor: np.ndarray, samples: int = 1000, seed: int = 0) -> float:
    """Euclidean-induced norm of a symmetric tensor.

    Exact for orders 1 and 2.  For order 3 the norm equals
    max_{||u||=1} |T[u,u,u]| (symmetric tensors attain the induced norm on
    the diagonal), which is estimated by maximizing over `samples` random
    unit vectors plus the coordinate directions.  The direction set depends
    only on (n, samples, seed), so it is drawn once and cached read-only;
    T[u,u,u] is contracted one pair of operands at a time.  The estimate is
    a lower bound and is used for diagnostics only, never to steer the
    algorithm.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim == 0:
        return abs(float(t))
    if t.ndim == 1:
        return float(np.linalg.norm(t))
    if t.ndim == 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (t + t.T)))))
    n = t.shape[0]
    u = _unit_directions(n, samples, seed)
    tu = (u @ t.reshape(n, n * n)).reshape(-1, n, n)  # T[u, ., .] per direction
    vals = np.abs(np.einsum("aj,aj->a", np.einsum("ajk,ak->aj", tu, u), u))
    return float(vals.max())


def frobenius_norm(tensor: np.ndarray) -> float:
    """Entrywise 2-norm; upper-bounds the induced norm for any order."""
    return float(np.sqrt(np.sum(np.asarray(tensor, dtype=float) ** 2)))


@dataclass(frozen=True)
class DerivativeBundle:
    """Function value plus derivative tensors of orders 1..degree at a point.

    Parameters
    ----------
    value : float
        Exact or inexact function value at the base point.
    tensors : tuple of ndarray
        Symmetric tensors; entry ``i-1`` has order ``i`` and shape
        ``(dim,) * i``.
    accuracy : tuple of float
        Per-order absolute error bounds on the tensors; 0 means exact.
    """

    value: float
    tensors: tuple = ()
    accuracy: tuple = ()

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=float) for t in self.tensors)
        if not tensors:
            raise ValueError("bundle needs at least the order-1 tensor")
        n = tensors[0].shape[0]
        for i, t in enumerate(tensors, start=1):
            if t.shape != (n,) * i:
                raise ValueError(
                    f"order-{i} tensor has shape {t.shape}, expected {(n,) * i}"
                )
        acc = tuple(float(a) for a in self.accuracy)
        if not acc:
            acc = (0.0,) * len(tensors)
        if len(acc) != len(tensors):
            raise ValueError("accuracy list must have one entry per order")
        if any(a < 0 for a in acc):
            raise ValueError("accuracy entries must be >= 0")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "accuracy", acc)

    @property
    def degree(self) -> int:
        return len(self.tensors)

    @property
    def dim(self) -> int:
        return self.tensors[0].shape[0]


@dataclass(frozen=True)
class RegularizedModel:
    """Degree-p Taylor bundle plus the sigma/(p+1)! * ||s||^(p+1) regularizer."""

    bundle: DerivativeBundle
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def degree(self) -> int:
        return self.bundle.degree


def _check_displacement(dim: int, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (dim,):
        raise ValueError(f"displacement has shape {s.shape}, expected ({dim},)")
    return s


def taylor_eval(bundle: DerivativeBundle, s, j: int) -> float:
    """Evaluate the degree-j Taylor polynomial of the bundle at displacement s."""
    s = _check_displacement(bundle.dim, s)
    if not 1 <= j <= bundle.degree:
        raise ValueError(f"order {j} outside 1..{bundle.degree}")
    total = bundle.value
    for i in range(1, j + 1):
        total += contract_full(bundle.tensors[i - 1], s) / math.factorial(i)
    return float(total)


def taylor_decrement(bundle: DerivativeBundle, s, j: int) -> float:
    """Drop of the degree-j Taylor polynomial from 0 to s.

    Equals ``taylor_eval(bundle, 0, j) - taylor_eval(bundle, s, j)``; the
    bundle value cancels, so it is computed directly from the tensors.
    """
    s = _check_displacement(bundle.dim, s)
    if not 1 <= j <= bundle.degree:
        raise ValueError(f"order {j} outside 1..{bundle.degree}")
    total = 0.0
    for i in range(1, j + 1):
        total -= contract_full(bundle.tensors[i - 1], s) / math.factorial(i)
    return float(total)


def model_eval(model: RegularizedModel, s) -> float:
    """Value of the regularized model at s."""
    p = model.degree
    s = _check_displacement(model.bundle.dim, s)
    reg = model.sigma / math.factorial(p + 1) * np.linalg.norm(s) ** (p + 1)
    return taylor_eval(model.bundle, s, p) + reg


def model_decrement(model: RegularizedModel, s) -> float:
    """Drop of the regularized model from 0 to s (never above the Taylor drop)."""
    p = model.degree
    s = _check_displacement(model.bundle.dim, s)
    reg = model.sigma / math.factorial(p + 1) * np.linalg.norm(s) ** (p + 1)
    return taylor_decrement(model.bundle, s, p) - reg


def regularizer_derivative(s, p: int, j: int) -> np.ndarray:
    """Order-j derivative tensor of ||s||^(p+1), by closed form.

    Implemented for j in {1, 2, 3}; the degree cap p <= 3 elsewhere in the
    package follows from this.  With r = ||s|| and b = p + 1:

        grad   = b r^(b-2) s
        hess   = b r^(b-2) I + b(b-2) r^(b-4) s s^T
        third  = b(b-2) r^(b-4) sym(I (x) s) + b(b-2)(b-4) r^(b-6) s(x)s(x)s

    where sym(I (x) s)_{abc} = delta_ab s_c + delta_ac s_b + delta_bc s_a.
    All terms vanish as s -> 0 for j <= p, and the zero tensor is returned
    at s = 0.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if j not in (1, 2, 3):
        raise ValueError("closed forms implemented for orders 1..3 only")
    r = float(np.linalg.norm(s))
    if r == 0.0:
        return np.zeros((n,) * j)
    b = float(p + 1)
    if j == 1:
        return b * r ** (b - 2) * s
    if j == 2:
        return b * r ** (b - 2) * np.eye(n) + b * (b - 2) * r ** (b - 4) * np.outer(s, s)
    eye = np.eye(n)
    mixed = (
        np.einsum("ab,c->abc", eye, s)
        + np.einsum("ac,b->abc", eye, s)
        + np.einsum("bc,a->abc", eye, s)
    )
    out = b * (b - 2) * r ** (b - 4) * mixed
    if b != 4.0:
        out += b * (b - 2) * (b - 4) * r ** (b - 6) * np.einsum("a,b,c->abc", s, s, s)
    return out


def shifted_model_derivatives(model: RegularizedModel, s, j: int) -> np.ndarray:
    """Order-j derivative tensor of the regularized model at displacement s,
    for j in 1..max(p, 2).

    The Taylor part re-centers the bundle tensors at s; the regularizer part
    uses the exact closed form, so only the bundle-derived part carries any
    inexactness.  Above the model degree p the Taylor part is zero and only
    the regularizer curves (the Newton Hessian of a degree-1 model).
    """
    p = model.degree
    if not 1 <= j <= max(p, 2):
        raise ValueError(f"order {j} outside 1..{max(p, 2)}")
    s = _check_displacement(model.bundle.dim, s)
    n = model.bundle.dim
    out = np.zeros((n,) * j)
    for ell in range(j, p + 1):
        out = out + contract(model.bundle.tensors[ell - 1], s, ell - j) / math.factorial(
            ell - j
        )
    out = out + model.sigma / math.factorial(p + 1) * regularizer_derivative(s, p, j)
    return out
