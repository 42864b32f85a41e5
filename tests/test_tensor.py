"""Tape and primitive-op tests: every backward rule is checked against
central finite differences, at fixed shapes and as hypothesis properties on
random shapes, plus the stop-gradient and determinism contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redge.categorical import FactorizedCategorical
from redge.estimators import reinmax_apply
from redge.tensor import (
    Tape,
    as_matrix,
    covariance_apply,
    covariance_apply_by_category,
    finite_diff_gradient,
    grad_or_zero,
    jacobian,
    row_reduce,
    softmax_by_category,
    softmax_rows,
    stable_softmax,
)


def rel_err(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def tape_grad(build, x):
    """Gradient of a scalar-node builder at x via the tape."""
    tape = Tape()
    leaf = tape.lift(x, requires_grad=True)
    out = build(leaf)
    tape.backward(out)
    return grad_or_zero(leaf)


def fd_grad(build, x, h=1e-5):
    def f(v):
        tape = Tape()
        return float(build(tape.constant(v)).value[0, 0])

    return finite_diff_gradient(f, x, h)


class TestLift:
    def test_identity_construction(self):
        tape = Tape()
        node = tape.lift(np.zeros((2, 2)), requires_grad=True)
        assert node.value.shape == (2, 2)
        assert np.all(node.value == 0.0)
        assert node.requires_grad

    def test_sum_backward_is_ones(self):
        tape = Tape()
        leaf = tape.lift([1.0, 2.0, 3.0], requires_grad=True)
        tape.backward(leaf.sum())
        np.testing.assert_array_equal(leaf.grad, np.ones((1, 3)))

    def test_detached_leaf_gets_no_gradient(self):
        tape = Tape()
        leaf = tape.lift([1.0, 2.0], requires_grad=True)
        frozen = leaf.detach()
        tape.backward(frozen.sum())
        assert leaf.grad is None

    def test_rejects_non_finite(self):
        tape = Tape()
        with pytest.raises(ValueError):
            tape.lift([np.inf, 1.0])
        with pytest.raises(ValueError):
            tape.lift([np.nan])


class TestLiftSharing:
    def test_owned_read_only_matrix_is_shared(self):
        logits = FactorizedCategorical(np.arange(6.0).reshape(3, 2)).logits   # copied once
        node = Tape().lift(logits, requires_grad=True)
        assert node.value is logits
        assert np.shares_memory(node.value, logits)

    def test_anything_else_is_copied_into_a_read_only_leaf(self):
        writable = np.arange(6.0).reshape(3, 2)
        owner = writable.copy()
        owner.flags.writeable = False
        view = owner[:, ::-1]   # read-only, but not the owner
        integer = np.arange(6).reshape(3, 2)
        fortran = np.asfortranarray(writable)
        fortran.flags.writeable = False
        for value in (writable, view, integer, fortran):
            leaf = Tape().lift(value).value
            assert not np.shares_memory(leaf, value)
            assert not leaf.flags.writeable and leaf.dtype == np.float64
            np.testing.assert_array_equal(leaf, value)

    def test_leaf_values_reject_writes(self):
        leaf = Tape().lift(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            leaf.value[0, 0] = 2.0

    def test_non_finite_rejected_on_both_paths(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            Tape().lift(bad)   # the copy path
        bad.flags.writeable = False
        with pytest.raises(ValueError, match="must be finite"):
            Tape().lift(bad)   # the shared path


class TestElementwiseOps:
    def test_hadamard_values_and_grads(self):
        tape = Tape()
        a = tape.lift([1.0, 2.0], requires_grad=True)
        b = tape.lift([3.0, 4.0], requires_grad=True)
        out = (a * b).sum()
        np.testing.assert_allclose((a * b).value, [[3.0, 8.0]])
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, [[3.0, 4.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 2.0]])

    def test_pow_square(self):
        tape = Tape()
        x = tape.lift([[0.45]], requires_grad=True)
        out = x.pow(2.0)
        np.testing.assert_allclose(out.value, [[0.2025]])
        tape.backward(out.sum())
        np.testing.assert_allclose(x.grad, [[0.9]])

    def test_sum_exp(self):
        tape = Tape()
        x = tape.lift([0.0, 0.0], requires_grad=True)
        out = x.exp().sum()
        assert out.value[0, 0] == 2.0
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [[1.0, 1.0]])

    def test_shape_mismatch_raises(self):
        tape = Tape()
        a = tape.lift(np.ones((2, 2)))
        b = tape.lift(np.ones((2, 3)))
        with pytest.raises(ValueError):
            a + b

    def test_log_sqrt_domain(self):
        tape = Tape()
        x = tape.lift([-1.0, 1.0])
        with pytest.raises(ValueError):
            x.log()
        with pytest.raises(ValueError):
            x.sqrt()
        with pytest.raises(ValueError):
            x.pow(1.5)

    @pytest.mark.parametrize(
        "name,build,positive",
        [
            ("add", lambda x: (x + x * 0.5).dot(np.full(x.shape, 0.7)), False),
            ("sub", lambda x: (x - x * 2.0).dot(np.full(x.shape, -0.3)), False),
            ("hadamard", lambda x: (x * x).sum(), False),
            ("scale", lambda x: (x * 3.5).sum(), False),
            ("exp", lambda x: x.exp().sum(), False),
            ("log", lambda x: x.log().sum(), True),
            ("sqrt", lambda x: x.sqrt().sum(), True),
            ("pow3", lambda x: x.pow(3.0).sum(), False),
            ("pow_half", lambda x: x.pow(0.5).sum(), True),
            ("abs", lambda x: x.abs().sum(), False),
            ("clamp", lambda x: x.clamp_min(0.25).sum(), True),
            ("row_sum", lambda x: x.row_sum().pow(2.0).sum(), False),
            ("dot", lambda x: x.dot(x), False),
            ("transpose", lambda x: (x.T @ x).sum(), False),
            ("matmul", lambda x: (x @ x.T).sum(), False),
            ("softmax", lambda x: (softmax_rows(x) * softmax_rows(x)).sum(), False),
            ("div", lambda x: (x / 2.0).sum(), False),
        ],
    )
    def test_gradients_match_finite_differences(self, name, build, positive):
        rng = np.random.default_rng(hash(name) % (2**32))
        for trial in range(100):
            x = rng.uniform(0.1 if positive else -3.0, 3.0, size=(2, 3))
            assert rel_err(tape_grad(build, x), fd_grad(build, x)) <= 1e-5



# Every differentiable op, as a map from an (L, K) node to a node of any
# shape, with the input domain it needs: "any" in [-2, 2], "positive" in
# [0.2, 2], "nonzero" with 0.1 <= |x| <= 2 (away from the kinks of abs and
# clamp_min).
VJP_OPS = {
    "add": (lambda x: x + x.exp(), "any"),
    "radd_scalar": (lambda x: 0.5 + x * x, "any"),
    "sub": (lambda x: x - x * x, "any"),
    "rsub_scalar": (lambda x: 1.0 - x.exp(), "any"),
    "neg": (lambda x: -(x * x), "any"),
    "scale": (lambda x: x * 3.5, "any"),
    "hadamard": (lambda x: x * x.exp(), "any"),
    "div_scalar": (lambda x: x.exp() / 2.0, "any"),
    "div_node": (lambda x: x / x.exp(), "any"),
    "pow3": (lambda x: x.pow(3.0), "any"),
    "pow_half": (lambda x: x.pow(0.5), "positive"),
    "pow_operator": (lambda x: x**-1.5, "positive"),
    "exp": (lambda x: x.exp(), "any"),
    "log": (lambda x: x.log(), "positive"),
    "sqrt": (lambda x: x.sqrt(), "positive"),
    "abs": (lambda x: x.abs(), "nonzero"),
    "clamp_min": (lambda x: x.clamp_min(0.0), "nonzero"),
    "sum": (lambda x: (x * x).sum(), "any"),
    "row_sum": (lambda x: (x * x).row_sum(), "any"),
    "dot": (lambda x: x.dot(x.exp()), "any"),
    "transpose": (lambda x: (x * x).T, "any"),
    "matmul": (lambda x: x @ x.T, "any"),
    "softmax_rows": (lambda x: softmax_rows(x * 3.0), "any"),
    "linear_op": (lambda x: _cumsum(x).pow(2.0), "any"),
}


def _cumsum(x):
    """Running sum over the flattened entries: a linear map built with
    ``Node.apply`` from its value and its adjoint."""
    shape = x.shape
    return x.apply(np.cumsum(x.value.ravel())[None, :],
                   lambda g: np.cumsum(g.ravel()[::-1])[::-1].reshape(shape))


def _domain_values(rng, domain, shape):
    if domain == "positive":
        return rng.uniform(0.2, 2.0, shape)
    if domain == "nonzero":
        return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 2.0, shape)
    return rng.uniform(-2.0, 2.0, shape)


@pytest.mark.parametrize("name", sorted(VJP_OPS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(length=st.integers(1, 4), categories=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_vjp_matches_central_differences(name, length, categories, seed):
    """Each op's VJP, under a random cotangent, against central differences on
    random shapes, on both sides of K = 8, where a one-row sum turns pairwise."""
    build, domain = VJP_OPS[name]
    rng = np.random.default_rng(seed)
    x = _domain_values(rng, domain, (length, categories))
    cotangent = rng.standard_normal(build(Tape().constant(x)).shape)
    scalar = lambda node: build(node).dot(cotangent)
    assert rel_err(tape_grad(scalar, x), fd_grad(scalar, x)) <= 1e-6


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(length=st.integers(1, 4), categories=st.integers(1, 24), reps=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_row_reduce_is_the_category_kernels_rule(length, categories, reps, seed):
    """Row reductions run over the leading axis of the (K, L) transpose, the
    rule of the chain's category-major kernels: the row-major forms equal
    the broadcast formulas over ``row_reduce`` and the kernels on the
    transposed block bit for bit, and ReinMax on an (R, L, K) stack equals
    its per-replication calls."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-30.0, 30.0, (length, categories))
    z = np.exp(np.maximum(x - row_reduce(np.maximum, x), -745.0))
    p = stable_softmax(x)
    np.testing.assert_array_equal(p, z / row_reduce(np.add, z))
    col = np.empty(length)
    np.testing.assert_array_equal(p, softmax_by_category(x.T.copy(), col).T)
    g = rng.standard_normal((reps, length, categories))
    want = p * (g - row_reduce(np.add, p * g))
    np.testing.assert_array_equal(covariance_apply(p, g), want)
    onehot = np.eye(categories)[rng.integers(0, categories, (reps, length))]
    stacked = reinmax_apply(p, onehot, g)
    out = np.empty((categories, length))
    for r in range(reps):
        np.testing.assert_array_equal(covariance_apply(p, g[r]), want[r])
        kernel = covariance_apply_by_category(p.T.copy(), g[r].T.copy(), out, col)
        np.testing.assert_array_equal(want[r], kernel.T)
        np.testing.assert_array_equal(stacked[r], reinmax_apply(p, onehot[r], g[r]))


class TestSoftmax:
    def test_uniform_row(self):
        tape = Tape()
        p = softmax_rows(tape.lift([0.0, 0.0]))
        np.testing.assert_allclose(p.value, [[0.5, 0.5]])

    def test_extreme_logits_stable(self):
        p = stable_softmax([[1000.0, 0.0]])
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = stable_softmax(rng.uniform(-50, 50, (4, 6)))
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p > 0.0)

    def test_jacobian_is_diag_minus_outer(self):
        tape = Tape()
        x = tape.lift([0.0, 0.0], requires_grad=True)
        p = softmax_rows(x)
        jac = jacobian(p, x)
        np.testing.assert_allclose(jac, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


class TestDetach:
    def test_detach_times_self(self):
        # d/dx [stop(x) * x] = stop(x), not 2x
        tape = Tape()
        x = tape.lift([[3.0]], requires_grad=True)
        out = (x.detach() * x).sum()
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [[3.0]])

    def test_straight_through_forward(self):
        tape = Tape()
        x = tape.lift([1.0, 2.0], requires_grad=True)
        probs = softmax_rows(x)
        hard = tape.constant([[0.0, 1.0]])
        y = (hard - probs).detach() + probs
        np.testing.assert_allclose(y.value, [[0.0, 1.0]], atol=1e-15)
        jac = jacobian(y, x)
        p = probs.value[0]
        np.testing.assert_allclose(jac, np.diag(p) - np.outer(p, p), atol=1e-12)

    def test_detach_of_constant_unchanged(self):
        tape = Tape()
        c = tape.constant([[1.0, 2.0]])
        d = c.detach()
        np.testing.assert_array_equal(d.value, c.value)

    def test_detach_equals_frozen_recomputation(self):
        # Detaching a node must match recomputing with its value as a constant.
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-2, 2, (2, 2))

            def with_detach(leaf):
                inner = softmax_rows(leaf)
                return (inner.detach() * leaf.exp()).sum()

            tape = Tape()
            leaf = tape.lift(x, requires_grad=True)
            tape.backward(with_detach(leaf))
            got = leaf.grad.copy()

            frozen = stable_softmax(x)
            tape2 = Tape()
            leaf2 = tape2.lift(x, requires_grad=True)
            tape2.backward((tape2.constant(frozen) * leaf2.exp()).sum())
            np.testing.assert_array_equal(got, leaf2.grad)


class TestBackward:
    def test_square_gradient(self):
        tape = Tape()
        x = tape.lift([1.0, 2.0], requires_grad=True)
        tape.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = tape.lift(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            tape.backward(x + x)

    def test_softmax_loss_matches_fd(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(0, 1, (3, 4))

        def build(leaf):
            return ((softmax_rows(leaf) - target).pow(2.0)).sum()

        for _ in range(10):
            x = rng.uniform(-3, 3, (3, 4))
            assert rel_err(tape_grad(build, x), fd_grad(build, x)) <= 1e-5

    def test_backward_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (3, 3))
        tape = Tape()
        leaf = tape.lift(x, requires_grad=True)
        out = (softmax_rows(leaf) @ leaf.T).sum()
        tape.backward(out)
        first = leaf.grad.copy()
        tape.backward(out)
        assert np.array_equal(first, leaf.grad)
        assert first.tobytes() == leaf.grad.tobytes()


class TestFiniteDiff:
    def test_sum_of_squares(self):
        g = finite_diff_gradient(lambda v: float((v**2).sum()), [1.0, 2.0])
        np.testing.assert_allclose(g, [[2.0, 4.0]], atol=1e-8)

    def test_constant_function(self):
        g = finite_diff_gradient(lambda v: 1.25, np.ones((2, 2)))
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_cross_check_with_tape(self):
        rng = np.random.default_rng(12)
        build = lambda x: (softmax_rows(x) * x.exp()).sum()
        x = rng.uniform(-2, 2, (2, 3))
        assert rel_err(tape_grad(build, x), fd_grad(build, x)) <= 1e-5

    def test_requires_positive_h(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, np.ones((1, 1)), h=0.0)


def test_as_matrix_shapes():
    assert as_matrix(3.0).shape == (1, 1)
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))
