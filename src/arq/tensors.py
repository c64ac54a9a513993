"""Dense symmetric derivative tensors and Taylor-model arithmetic.

Everything here is a pure function of value-type inputs.  Derivative
tensors of order ``i`` over R^n are stored as dense numpy arrays of shape
``(n,) * i`` with full symmetry (no packed storage).  At the scales this
package targets (degree <= 3; n in the tens for order-3 tensors, up to a
few hundred for degree-2 runs) the simplicity is worth more than the
memory.

The model is only ever read through differences: a Taylor or model
*decrement* (the drop from 0 to s) and derivatives at s.  The function value
at the base point cancels from all of them, so a `DerivativeBundle` holds
the derivative tensors only.

Each public function validates its inputs and then calls one private
kernel on float arrays; the package's inner loops, which already hold such
arrays, call the kernels directly.  `_ModelPoint` is the kernel of the
regularized model at one displacement s: it computes ||s|| and each product
of a bundle tensor with s once and shares them between the model decrement
and its derivatives at s.  It lives as long as its caller
holds it.  `_norm` is numpy's own 1-D norm formula without its dispatch.
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
    "taylor_decrement",
    "model_decrement",
    "shifted_model_derivatives",
    "regularizer_derivative",
    "symmetrize",
    "operator_norm",
]


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
    """Derivative tensors of orders 1..degree at a point, and nothing else.

    ``tensors[i-1]`` is the symmetric order-``i`` tensor, of shape
    ``(dim,) * i``, stored as a C-contiguous float array.  A bundle holds no
    function value: the algorithm reads only decrements, in which f(x)
    cancels, and takes objective values from the value oracle alone.
    """

    tensors: tuple

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=float, order="C") for t in self.tensors)
        if not tensors:
            raise ValueError("bundle needs at least the order-1 tensor")
        n = tensors[0].shape[0]
        for i, t in enumerate(tensors, start=1):
            if t.shape != (n,) * i:
                raise ValueError(
                    f"order-{i} tensor has shape {t.shape}, expected {(n,) * i}"
                )
        object.__setattr__(self, "tensors", tensors)

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
    s = np.asarray(s, dtype=float, order="C")
    if s.shape != (dim,):
        raise ValueError(f"displacement has shape {s.shape}, expected ({dim},)")
    return s


def _check_order(j: int, top: int) -> None:
    if not 1 <= j <= top:
        raise ValueError(f"order {j} outside 1..{top}")


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D float array, by the formula
    `np.linalg.norm` uses (sqrt of ``v.dot(v)``), so bit for bit the same."""
    return math.sqrt(v.dot(v))


def _full_contraction(tensor: np.ndarray, s: np.ndarray) -> float:
    """T[s, ..., s] of an order-i float tensor T, contracted from the
    trailing axis."""
    out = tensor
    for _ in range(tensor.ndim):
        out = out @ s
    return float(out)


def _taylor_drop(fulls) -> float:
    """-sum_i fulls[i-1] / i!, where fulls[i-1] = T_i[s, ..., s]: the drop
    of the Taylor polynomial from 0 to s."""
    total = 0.0
    for i, c in enumerate(fulls, start=1):
        total -= c / math.factorial(i)
    return float(total)


def _taylor_decrement(tensors, s: np.ndarray, j: int) -> float:
    """Kernel of `taylor_decrement` on float tensors and displacement."""
    return _taylor_drop([_full_contraction(t, s) for t in tensors[:j]])


def taylor_decrement(bundle: DerivativeBundle, s, j: int) -> float:
    """Drop of the degree-j Taylor polynomial from 0 to s,
    ``-sum_{i<=j} T_i[s, ..., s] / i!``."""
    s = _check_displacement(bundle.dim, s)
    _check_order(j, bundle.degree)
    return _taylor_decrement(bundle.tensors, s, j)


class _ModelPoint:
    """The regularized model at one displacement s.

    ||s|| and the chain T_ell, T_ell @ s, (T_ell @ s) @ s, ... of each
    bundle tensor are computed once and shared: the decrement takes the
    end of each chain, the order-j derivative the entry after ell - j
    contractions (so ``H @ s`` feeds both ``(H @ s) @ s`` and the gradient).
    Derivatives are kept once built.  A point lives as long as its caller
    holds it; nothing is kept across calls.
    """

    __slots__ = ("model", "s", "norm", "_chains", "_derivs")

    def __init__(self, model: RegularizedModel, s: np.ndarray):
        self.model = model
        self.s = s
        self.norm = _norm(s)
        chains = []
        for t in model.bundle.tensors:
            chain = [t]
            for _ in range(t.ndim):
                chain.append(chain[-1] @ s)
            chains.append(chain)
        self._chains = chains
        self._derivs = {}

    def decrement(self) -> float:
        p = len(self._chains)
        reg = self.model.sigma / math.factorial(p + 1) * self.norm ** (p + 1)
        return _taylor_drop([float(chain[-1]) for chain in self._chains]) - reg

    def derivative(self, j: int) -> np.ndarray:
        """Order-j derivative tensor of the model at s (see
        `shifted_model_derivatives`)."""
        out = self._derivs.get(j)
        if out is None:
            p = len(self._chains)
            # Summed onto 0.0, so no entry is -0.0.
            out = 0.0
            for ell in range(j, p + 1):
                term = self._chains[ell - 1][ell - j]
                if ell - j > 1:
                    term = term / math.factorial(ell - j)
                out = out + term
            reg = _regularizer_derivative(self.s, self.norm, p, j)
            out = out + self.model.sigma / math.factorial(p + 1) * reg
            self._derivs[j] = out
        return out


def model_decrement(model: RegularizedModel, s) -> float:
    """Drop of the regularized model from 0 to s (never above the Taylor drop)."""
    s = _check_displacement(model.bundle.dim, s)
    return _ModelPoint(model, s).decrement()


def regularizer_derivative(s, p: int, j: int) -> np.ndarray:
    """Order-j derivative tensor of ||s||^(p+1), by closed form.

    Implemented for j in {1, 2, 3}; the degree cap p <= 3 elsewhere in the
    package follows from this.  With r = ||s|| and b = p + 1:

        grad   = b r^(b-2) s
        hess   = b r^(b-2) I + b(b-2) r^(b-4) s s^T
        third  = b(b-2) r^(b-4) sym(I (x) s) + b(b-2)(b-4) r^(b-3) u(x)u(x)u

    where u = s / r and sym(I (x) s)_{abc} = delta_ab s_c + delta_ac s_b
    + delta_bc s_a.
    A term whose coefficient is zero is skipped (its power of r may not be
    representable).  All terms vanish as s -> 0 for j <= p, and the zero
    tensor is returned at s = 0; above p the value at s = 0 is exact: 2I
    for the Hessian of ||s||^2, and zero otherwise (for p = 2, j = 3, where
    the tensor has no limit at 0, zero by convention).
    """
    s = np.asarray(s, dtype=float)
    if j not in (1, 2, 3):
        raise ValueError("closed forms implemented for orders 1..3 only")
    return _regularizer_derivative(s, _norm(s.ravel()), p, j)


def _regularizer_derivative(s: np.ndarray, r: float, p: int, j: int) -> np.ndarray:
    """Kernel of `regularizer_derivative`, given r = ||s||."""
    n = s.shape[0]
    b = float(p + 1)
    if r == 0.0:
        out = np.zeros((n,) * j)
        if j == 2 and b == 2.0:
            out.reshape(-1)[:: n + 1] = 2.0
        return out
    if j == 1:
        return b * r ** (b - 2) * s
    if j == 2:
        out = np.zeros((n, n)) if b == 2.0 else b * (b - 2) * r ** (b - 4) * (s[:, None] * s)
        out.reshape(-1)[:: n + 1] += b * r ** (b - 2)
        return out
    if b == 2.0:
        return np.zeros((n, n, n))
    idx = np.arange(n)
    mixed = np.zeros((n, n, n))
    mixed[idx, idx, :] += s
    mixed[idx, :, idx] += s
    mixed[:, idx, idx] += s[:, None]
    out = b * (b - 2) * r ** (b - 4) * mixed
    if b != 4.0:
        # r^(b-6) s(x)s(x)s written as r^(b-3) u(x)u(x)u with u = s / r: at
        # b = 3 the tensor is homogeneous of degree 0, and r^(b-6) overflows
        # for tiny s.
        u = s / r
        out += b * (b - 2) * (b - 4) * r ** (b - 3) * np.einsum("a,b,c->abc", u, u, u)
    return out


def shifted_model_derivatives(model: RegularizedModel, s, j: int) -> np.ndarray:
    """Order-j derivative tensor of the regularized model at displacement s,
    for j in 1..max(p, 2).

    The Taylor part re-centers the bundle tensors at s; the regularizer part
    uses the exact closed form, so only the bundle-derived part carries any
    inexactness.  Above the model degree p the Taylor part is zero and only
    the regularizer curves (the Newton Hessian of a degree-1 model).
    """
    _check_order(j, max(model.degree, 2))
    s = _check_displacement(model.bundle.dim, s)
    return _ModelPoint(model, s).derivative(j)
