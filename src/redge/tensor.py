"""Dense float64 matrices with a minimal reverse-mode autodiff tape.

All values are 2-D numpy arrays (scalars are 1x1, row vectors 1xK).  A
:class:`Tape` owns an append-only list of :class:`Node` objects.  Interior
nodes keep, per parent, a closure that maps the output cotangent to that
parent's cotangent; :meth:`Tape.backward` walks the node list in reverse
insertion order exactly once, so two backward passes over the same tape
produce bitwise-identical gradients.

A map of one node whose vector-Jacobian product is known in closed form
becomes a single node through :meth:`Node.apply`, given the output value and
the function that maps an output cotangent to the input cotangent.  Every
one-input op here (``softmax_rows`` included) and every custom node outside
this module is built that way.

``detach()`` creates a node with the same value but no parents: upstream of
it the graph behaves as if the value were a constant (stop-gradient).

Tapes are confined to one logical thread.  Values are never mutated after a
node is created, so they can be shared freely across threads: a leaf holds a
:func:`frozen_matrix` (read-only), and no op writes into its inputs.

The ``*_by_category`` kernels are the diffusion chain's category-major
(K, L) forms of :func:`stable_softmax` and :func:`covariance_apply`, in
place.  Every reduction over categories, there and in :func:`row_reduce`, is
numpy's reduction over the leading axis of a C-ordered (K, L) block, so both
forms give the same values bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "Tape",
    "Node",
    "as_matrix",
    "frozen_matrix",
    "row_reduce",
    "stable_softmax",
    "softmax_rows",
    "finite_diff_gradient",
    "jacobian",
    "grad_or_zero",
]

# exp() underflows to zero a bit below -745; clamping shifted logits there
# keeps softmax rows strictly positive even for extreme logit gaps.
_EXP_FLOOR = -745.0

# The seed of a backward pass from a scalar output, shared by every such pass.
_UNIT_SEED = np.ones((1, 1))
_UNIT_SEED.flags.writeable = False


def as_matrix(value) -> np.ndarray:
    """Coerce a scalar, sequence, or array into a 2-D float64 array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return arr


def frozen_matrix(value, what: str = "input") -> np.ndarray:
    """``value`` as a finite, read-only 2-D float64 matrix, copied at most once.

    An owned, read-only, C-ordered float64 matrix counts as immutable and is
    returned as is, shared rather than copied.  Anything else (a writable
    array, a view, another dtype or layout, a scalar or a sequence) is copied
    once into a read-only matrix of its own.  Both paths reject a non-finite
    entry with ``ValueError``.  The rule trusts an owner that marks its array
    read-only not to keep writing into it through a writable view.
    """
    if (type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == 2
            and value.flags.owndata and not value.flags.writeable
            and value.flags.c_contiguous):
        arr = value
    else:
        arr = as_matrix(np.array(value, dtype=np.float64, order="C"))
        arr.flags.writeable = False
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def row_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` (``np.maximum`` or ``np.add``) over each row's
    categories, the last axis, kept as a length-1 axis, so (..., L, K) gives
    (..., L, 1).  It reduces over the leading axis of the C-ordered
    category-major (..., K, L) copy: the call the chain's ``*_by_category``
    kernels make on their blocks, so both layouts reduce in one order."""
    return ufunc.reduce(np.swapaxes(x, -1, -2).copy(), axis=-2)[..., None]


def softmax_by_category(z: np.ndarray, col: np.ndarray) -> np.ndarray:
    """In place, the softmax over the leading axis of a (K, L) block: bit for
    bit the transpose of :func:`stable_softmax` on the (L, K) rows, with
    every row op a contiguous op over L.  ``col`` is (L,) scratch."""
    np.maximum.reduce(z, axis=0, out=col)
    np.subtract(z, col, out=z)
    np.maximum(z, _EXP_FLOOR, out=z)
    np.exp(z, out=z)
    return np.divide(z, np.add.reduce(z, axis=0, out=col), out=z)


def covariance_apply_by_category(d: np.ndarray, g: np.ndarray, out: np.ndarray,
                                 col: np.ndarray) -> np.ndarray:
    """``out`` = Cov(d) g over the leading axis of (K, L) blocks, bit for bit
    the transpose of :func:`covariance_apply`; ``g`` is overwritten, and
    ``col`` is (L,) scratch."""
    np.multiply(d, g, out=out)
    np.subtract(g, np.add.reduce(out, axis=0, out=col), out=g)
    return np.multiply(d, g, out=out)


def stable_softmax(x) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Rows of the result are strictly positive and sum to one.  Shifted
    arguments are clamped at the exp() underflow threshold so no row can
    collapse to all zeros.
    """
    x = as_matrix(x)
    z = x - row_reduce(np.maximum, x)
    np.maximum(z, _EXP_FLOOR, out=z)
    np.exp(z, out=z)
    return np.divide(z, row_reduce(np.add, z), out=z)


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def _identity_vjp(g):
    return g


def _neg_vjp(g):
    return -g


class Node:
    """One tape entry: a value plus vector-Jacobian closures into its parents."""

    __slots__ = ("tape", "index", "value", "parents", "requires_grad", "grad", "name")

    # Make numpy defer to the reflected Node operators instead of coercing.
    __array_ufunc__ = None

    def __init__(self, tape, index, value, parents, requires_grad, name=None):
        self.tape = tape
        self.index = index
        self.value = value
        self.parents = parents
        self.requires_grad = requires_grad
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(index={self.index}, shape={self.value.shape}, requires_grad={self.requires_grad})"

    # -- construction helpers ------------------------------------------------

    def _coerce(self, other) -> "Node":
        if isinstance(other, Node):
            if other.tape is not self.tape:
                raise ValueError("operands live on different tapes")
            return other
        arr = np.asarray(other, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self.value.shape, float(arr))
        return self.tape.constant(arr)

    def apply(self, value, vjp) -> "Node":
        """A node computed from this one alone, with a hand-written VJP.

        ``value`` is the output; ``vjp(g)`` maps an output cotangent g to the
        cotangent of this node (same shape as ``self.value``).  It runs only
        in a backward pass that reaches this node.
        """
        return self.tape._record(value, ((self, vjp),))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        _check_same_shape(self.value, other.value)
        return self.tape._record(
            self.value + other.value,
            ((self, _identity_vjp), (other, _identity_vjp)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        _check_same_shape(self.value, other.value)
        return self.tape._record(
            self.value - other.value,
            ((self, _identity_vjp), (other, _neg_vjp)),
        )

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return self.apply(-self.value, _neg_vjp)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            c = float(other)
            return self.apply(self.value * c, lambda g: g * c)
        other = self._coerce(other)
        _check_same_shape(self.value, other.value)
        a, b = self.value, other.value
        return self.tape._record(
            a * b,
            ((self, lambda g: g * b), (other, lambda g: g * a)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self * (1.0 / float(other))
        other = self._coerce(other)
        return self * other.pow(-1.0)

    def __pow__(self, p):
        return self.pow(p)

    def pow(self, p: float) -> "Node":
        """Elementwise power x**p; fractional p requires non-negative input."""
        p = float(p)
        x = self.value
        if p != round(p) and np.any(x < 0.0):
            raise ValueError(f"pow({p}): negative input with fractional exponent")
        out = np.power(x, p)

        def vjp(g, x=x, p=p):
            return g * p * np.power(x, p - 1.0)

        return self.apply(out, vjp)

    def exp(self) -> "Node":
        out = np.exp(self.value)
        return self.apply(out, lambda g: g * out)

    def log(self) -> "Node":
        x = self.value
        if np.any(x <= 0.0):
            raise ValueError("log of non-positive input")
        return self.apply(np.log(x), lambda g: g / x)

    def sqrt(self) -> "Node":
        x = self.value
        if np.any(x <= 0.0):
            raise ValueError("sqrt of non-positive input")
        out = np.sqrt(x)
        return self.apply(out, lambda g: g / (2.0 * out))

    def abs(self) -> "Node":
        x = self.value
        return self.apply(np.abs(x), lambda g: g * np.sign(x))

    def clamp_min(self, c: float) -> "Node":
        """Elementwise max(x, c); gradient vanishes on clamped entries."""
        x = self.value
        c = float(c)
        mask = (x > c).astype(np.float64)
        return self.apply(np.maximum(x, c), lambda g: g * mask)

    # -- reductions and shape ops ------------------------------------------

    def sum(self) -> "Node":
        shape = self.value.shape
        out = np.array([[self.value.sum()]])
        return self.apply(out, lambda g: np.full(shape, g[0, 0]))

    def row_sum(self) -> "Node":
        shape = self.value.shape
        out = row_reduce(np.add, self.value)
        return self.apply(out, lambda g: np.repeat(g, shape[1], axis=1))

    def dot(self, other) -> "Node":
        """Frobenius inner product; returns a 1x1 node."""
        other = self._coerce(other)
        _check_same_shape(self.value, other.value)
        a, b = self.value, other.value
        out = np.array([[float((a * b).sum())]])
        return self.tape._record(
            out,
            ((self, lambda g: g[0, 0] * b), (other, lambda g: g[0, 0] * a)),
        )

    @property
    def T(self) -> "Node":
        return self.apply(self.value.T.copy(), lambda g: g.T)

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self.value, other.value
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        return self.tape._record(
            a @ b,
            ((self, lambda g: g @ b.T), (other, lambda g: a.T @ g)),
        )

    def detach(self) -> "Node":
        """Same value, zero gradient flow."""
        return self.tape._record(self.value, ())

    def softmax_rows(self) -> "Node":
        return softmax_rows(self)


def covariance_apply(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise action of diag(p) - p p^T on g; leading axes of g broadcast."""
    return p * (g - row_reduce(np.add, p * g))


def softmax_rows(x: Node) -> Node:
    """Row-stochastic softmax node; backward applies diag(p) - p p^T per row."""
    p = stable_softmax(x.value)

    def vjp(g, p=p):
        return covariance_apply(p, g)

    return x.apply(p, vjp)


class Tape:
    """Append-only record of one differentiable computation.

    A tape is built once per estimation call and never reused across calls.
    Leaves created with a ``name`` can be looked up afterwards to read their
    gradients (used for auxiliary parameters threaded through objectives).
    A leaf's value is :func:`frozen_matrix` of what was lifted.  An owned,
    read-only float64 matrix is shared: a distribution's ``logits`` and
    ``probs`` and ``OneHotSample.onehot`` are built that way (see
    ``categorical``), so lifting them costs no copy.  Anything else is copied
    once.  Either way the leaf's array is read-only, so "values are never
    mutated" holds for leaves by construction, not by convention.

    Each node refers back to its tape, so a tape is a reference cycle until
    :meth:`release` drops its nodes; left alone, it is freed by the cyclic
    garbage collector rather than when its last outside reference goes, and
    the peak memory of a loop that builds many large tapes depends on when
    that collector runs.  A node built with :meth:`Node.apply` keeps what its
    VJP closes over alive just as long: each diffusion chain's single node
    holds that call's whole workspace, the category-major chain's denoiser
    outputs and scratch, or the binary gap chain's stored exp(-z) rows and
    scratch.  The category-major soft sample is a view of its workspace, so
    a soft sample kept after the tape is released keeps the workspace alive
    too; the gap chain's soft sample is an array of its own.
    These functions release the tapes they build once the value or gradient
    is read, so no tape outlives the call: ``estimators.estimate`` and
    ``estimators.eval_objective``, ``categorical.eval_scalar`` (so
    ``exact_gradient``), ``analysis.jacobian_decay_study`` and
    ``analysis.transport_slice``, and ``benchmarks.gmm.entropy_prior_gradient``.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.named: dict[str, Node] = {}

    def lift(self, value, requires_grad: bool = False, name: str | None = None) -> Node:
        arr = frozen_matrix(value, "lift: input")
        node = Node(self, len(self.nodes), arr, (), bool(requires_grad), name)
        self.nodes.append(node)
        if name is not None:
            if name in self.named:
                raise ValueError(f"duplicate leaf name {name!r}")
            self.named[name] = node
        return node

    def constant(self, value) -> Node:
        return self.lift(value, requires_grad=False)

    def _record(self, value, parents) -> Node:
        live = tuple([entry for entry in parents if entry[0].requires_grad])
        node = Node(self, len(self.nodes), np.asarray(value, dtype=np.float64), live, bool(live))
        self.nodes.append(node)
        return node

    def zero_grads(self) -> None:
        for node in self.nodes:
            node.grad = None

    def backward(self, output: Node, seed=None) -> None:
        """Reverse-mode pass from ``output``; clears previous gradients first.

        Without an explicit ``seed`` the output must be scalar (1x1).
        """
        if output.tape is not self:
            raise ValueError("output node belongs to a different tape")
        if seed is None:
            if output.value.shape != (1, 1):
                raise ValueError(f"backward: non-scalar output of shape {output.value.shape}")
            seed = _UNIT_SEED
        else:
            seed = as_matrix(seed)
            if seed.shape != output.value.shape:
                raise ValueError("backward: seed shape must match output shape")
        self.zero_grads()
        output.grad = seed
        for node in reversed(self.nodes[: output.index + 1]):
            g = node.grad
            if g is None or not node.parents:
                continue
            for parent, vjp in node.parents:
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib

    def release(self) -> None:
        """Drop every node and leaf name; the tape is spent afterwards.

        This breaks the node-tape reference cycles, so values, gradients and
        VJP closures are freed when the caller's last node goes, not when the
        cyclic collector next runs.
        """
        self.nodes.clear()
        self.named.clear()

    def named_grads(self) -> dict[str, np.ndarray]:
        return {
            name: (node.grad if node.grad is not None else np.zeros_like(node.value))
            for name, node in self.named.items()
        }


def grad_or_zero(node: Node) -> np.ndarray:
    return node.grad if node.grad is not None else np.zeros_like(node.value)


def finite_diff_gradient(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, O(h^2) accurate."""
    if h <= 0.0:
        raise ValueError("finite differences require h > 0")
    x = as_matrix(x)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fp, fm = float(f(xp)), float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"objective non-finite near perturbed point {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def jacobian(output: Node, leaf: Node) -> np.ndarray:
    """Full Jacobian d output / d leaf via one backward pass per output entry.

    Debug/oracle accessor: materializes the (output.size x leaf.size) matrix,
    so keep it to small shapes.
    """
    tape = output.tape
    m, n = output.value.size, leaf.value.size
    jac = np.zeros((m, n))
    for i in range(m):
        seed = np.zeros_like(output.value)
        seed.flat[i] = 1.0
        tape.backward(output, seed=seed)
        if leaf.grad is not None:
            jac[i] = leaf.grad.ravel()
    return jac
