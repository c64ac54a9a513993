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
arrays, call the kernels directly.  The regularized model has no public
function: the package reads it only through `_ModelPoint`, its kernel at
one displacement s, which computes ||s|| and each product of a bundle
tensor with s once and shares them between the model decrement and its
derivatives at s.  It also gives the model decrement at 2**-h s
from those products times powers of two, which in real arithmetic are the
products at 2**-h s; that is how step 1 searches its order-1 radius.  It
lives as long as its caller holds it.  A derivative at s is one new array:
its first term is summed onto 0.0, and the others, the regularizer's scaled
closed form last, are added to it in place; `taylor_derivative` is that
array before the regularizer's term.  `_norm` is numpy's own 1-D norm
formula without its dispatch wherever the sum of squares is in range, and a
norm of the vector scaled by a power of two elsewhere.

Every derivative tensor is measured in one norm, `operator_norm`: the
Frobenius norm, the Euclidean norm of its entries, which is the Euclidean
norm at order 1 and an upper bound on the induced norm at every order, so
a bound built from it errs upward.  Its kernel `_frobenius` is `_norm` of
the flattened entries, so one formula norms vectors and tensors alike.

The regularizer ||s||^(p+1) is differentiated in closed form only to the
orders the model's derivatives need, 1..max(p, 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DerivativeBundle",
    "RegularizedModel",
    "taylor_decrement",
    "operator_norm",
]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] per row, as a stack of 1-D dots (b may be one vector), so
    ``np.sqrt(_row_dots(a, a))`` is `np.linalg.norm` of each row bit for bit."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _frobenius(tensor: np.ndarray) -> float:
    """Kernel of `operator_norm` on a float tensor of any order: `_norm` of
    its entries."""
    return _norm(tensor.reshape(-1))


def operator_norm(tensor: np.ndarray) -> float:
    """The norm a derivative tensor of order 1, 2 or 3 is measured in: the
    Frobenius norm, an upper bound on the Euclidean-induced (operator) norm,
    and equal to it at order 1 and on every rank-one tensor.  The analysis
    holds in any norm at least the induced one.  The name stays because the
    benchmark's per-layer tracer (`perfbench/tracer.py`) times this function
    by it; the package's own loops call the kernel `_frobenius`, so the
    tracer counts only the calls made through this name.
    """
    tensor = np.asarray(tensor, dtype=float)
    if not 1 <= tensor.ndim <= 3:
        raise ValueError(f"operator norm of order {tensor.ndim}; orders 1..3 only")
    return _frobenius(tensor)


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


def _check_displacement(dim: int, s) -> np.ndarray:
    s = np.asarray(s, dtype=float, order="C")
    if s.shape != (dim,):
        raise ValueError(f"displacement has shape {s.shape}, expected ({dim},)")
    return s


def _check_order(j: int, top: int) -> None:
    if not 1 <= j <= top:
        raise ValueError(f"order {j} outside 1..{top}")


# Least v.dot(v) `_norm` takes as it is: squares under the normal range lose
# at most n 2**-175 of it, far under its rounding.
_LEAST_SQUARES = 2.0**-900


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array: sqrt(v.dot(v)), numpy's own
    formula, bit for bit, when v.dot(v) is finite and at least
    `_LEAST_SQUARES`; else that of v scaled by the power of two putting its
    largest |entry| in [1/2, 1), scaled back.  NaN and inf entries give
    NaN or inf."""
    squares = v.dot(v)
    if _LEAST_SQUARES <= squares < math.inf:  # NaN fails too
        return math.sqrt(squares)
    e = math.frexp(np.max(np.abs(v), initial=0.0))[1]  # 0 for 0, inf and NaN
    w = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(w.dot(w)), e))


def _full_contraction(tensor: np.ndarray, s: np.ndarray) -> float:
    """T[s, ..., s] of an order-i float tensor T, contracted from the
    trailing axis."""
    out = tensor
    for _ in range(tensor.ndim):
        out = out @ s
    return float(out)


# i! for i = 0..4, the orders a model of degree p <= 3 and its regularizer
# ||s||^(p+1) reach.
_FACTORIALS = tuple(math.factorial(i) for i in range(5))


def _taylor_drop(fulls, halvings: int = 0) -> float:
    """-sum_i fulls[i-1] / i!, where fulls[i-1] = T_i[s, ..., s]: the drop
    of the Taylor polynomial from 0 to s; with ``halvings`` h, the drop to
    2**-h s, each T_i[s, ..., s] taken times 2**(-i h)."""
    total = 0.0
    for i, c in enumerate(fulls, start=1):
        total -= math.ldexp(c, -i * halvings) / _FACTORIALS[i]
    return float(total)


def _times_power(c: float, r: float, k: int) -> float:
    """c r^k, by the float power r**k; where that raises OverflowError, one
    factor of r at a time, since the product may still be finite (a tiny
    sigma far out)."""
    try:
        return c * r**k
    except OverflowError:
        for _ in range(k):
            c *= r
        return c


def _taylor_decrement(tensors, s: np.ndarray, j: int) -> float:
    """Kernel of `taylor_decrement` on float tensors and displacement."""
    return _taylor_drop([_full_contraction(t, s) for t in tensors[:j]])


def taylor_decrement(bundle: DerivativeBundle, s, j: int) -> float:
    """Drop of the degree-j Taylor polynomial from 0 to s,
    ``-sum_{i<=j} T_i[s, ..., s] / i!``.

    Step 2 calls this name, the package's loops the kernel: the benchmark's
    tracer (`perfbench/tracer.py`) counts calls by this name, raises
    `LookupError` if it is gone, and its test asserts a solve makes some.
    """
    s = _check_displacement(bundle.dim, s)
    _check_order(j, bundle.degree)
    return _taylor_decrement(bundle.tensors, s, j)


class _ModelPoint:
    """The regularized model at one displacement s.

    ||s|| and the chain T_ell, T_ell @ s, (T_ell @ s) @ s, ... of each
    bundle tensor are computed once and shared: the decrement takes the
    full contraction at the end of each chain, the order-j derivative the
    entry after ell - j contractions (so ``H @ s`` feeds both
    ``(H @ s) @ s`` and the gradient).  The decrement and the derivatives
    are kept once computed: a caller may ask for them again for free.  A
    point lives as long as its caller holds it; nothing is kept across
    calls.

    `decrement_at` gives the decrement at 2**-h s along the point's ray
    from these products: each full contraction T_i[s, ..., s] times
    2**(-i h), and ||s|| times 2**-h.  In real arithmetic that is what a
    point at 2**-h s would give: each product is a power-of-two multiple of
    the one at s.
    """

    __slots__ = ("model", "s", "norm", "_chains", "_ends", "_derivs", "_decrement")

    def __init__(self, model: RegularizedModel, s: np.ndarray):
        self.model = model
        self.s = s
        self.norm = _norm(s)
        self._chains = []  # T_i, T_i @ s, ..., up to T_i[., s, ..., s]
        self._ends = []  # T_i[s, ..., s]
        for t in model.bundle.tensors:
            chain = [t]
            for _ in range(t.ndim - 1):
                chain.append(chain[-1] @ s)
            self._chains.append(chain)
            self._ends.append(float(chain[-1] @ s))
        self._derivs = {}
        self._decrement = None

    def decrement(self) -> float:
        if self._decrement is None:
            self._decrement = self.decrement_at(0)
        return self._decrement

    def decrement_at(self, halvings: int) -> float:
        """The decrement at 2**-halvings s, from the products at s."""
        b = len(self._ends) + 1
        reg = _times_power(self.model.sigma / _FACTORIALS[b], math.ldexp(self.norm, -halvings), b)
        return _taylor_drop(self._ends, halvings) - reg

    def derivative(self, j: int) -> np.ndarray:
        """Order-j derivative tensor of the regularized model at s, for j
        in 1..max(p, 2).

        The Taylor part re-centers the bundle tensors at s; the regularizer
        part is `_regularizer_derivative`'s exact closed form, so only the
        bundle-derived part carries any inexactness.  Above the model
        degree p the Taylor part is zero and only the regularizer curves
        (the Newton Hessian of a degree-1 model)."""
        out = self._derivs.get(j)
        if out is None:
            p = len(self._chains)
            reg = _regularizer_derivative(self.s, self.norm, p, j)
            reg *= self.model.sigma / _FACTORIALS[p + 1]
            if j <= p:
                out = self.taylor_derivative(j)
                out += reg
            else:
                out = 0.0 + reg  # no entry is -0.0
            self._derivs[j] = out
        return out

    def taylor_derivative(self, j: int) -> np.ndarray:
        """Order-j derivative tensor of the model's Taylor part alone at s,
        for j in 1..p, as a new array (not kept)."""
        p = len(self._chains)
        # Summed onto 0.0, so no entry is -0.0; that sum is a new array,
        # and the other terms are added to it in place, in order.
        out = 0.0 + self._chains[j - 1][0]
        for ell in range(j + 1, p + 1):
            term = self._chains[ell - 1][ell - j]
            out += term / _FACTORIALS[ell - j] if ell - j > 1 else term
        return out


def _regularizer_derivative(s: np.ndarray, r: float, p: int, j: int) -> np.ndarray:
    """Order-j derivative tensor of ||s||^(p+1), by closed form, given
    r = ||s||, for degree p in 1..3 and j in 1..max(p, 2): the orders the
    regularized model's derivatives need.  With b = p + 1:

        grad   = b r^(b-2) s
        hess   = b r^(b-2) I + b(b-2) r^(b-4) s s^T
        third  = 8 sym(I (x) s)          (order 3 occurs only at b = 4)

    where sym(I (x) s)_{abc} = delta_ab s_c + delta_ac s_b + delta_bc s_a.
    At b = 2 the Hessian's s s^T term, whose coefficient is zero, is skipped
    (its power of r may not be representable).  At s = 0 the zero tensor is
    returned, except for the Hessian of ||s||^2, which is 2I everywhere.
    """
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
        if b == 2.0:
            out = np.zeros((n, n))
        else:
            out = s[:, None] * s
            out *= b * (b - 2) * r ** (b - 4)
        out.reshape(-1)[:: n + 1] += b * r ** (b - 2)
        return out
    idx = np.arange(n)
    mixed = np.zeros((n, n, n))
    mixed[idx, idx, :] += s
    mixed[idx, :, idx] += s
    mixed[:, idx, idx] += s[:, None]
    return 8.0 * mixed
