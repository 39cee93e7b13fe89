"""Runnable property suite behind the ``check`` CLI subcommand.

Each check exercises one proved property of the attention layer or the
objective (row-stochasticity, convex-hull bounds, norm bound,
permutation equivariance, sparse/dense equivalence, gradient fidelity,
optimal confidence) and reports pass/fail with a measured worst case.

Gradient fidelity runs each row of ``GRADIENT_CHECKS``, one per hand-written
backward, through the one finite-difference routine ``finite_diff_grad``.
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import conditioning as cond
from . import degat as dg
from .geometry import DepthMap
from .numerics import elu
from .objective import (
    LossWeights, camera_loss, confidence_objective, depth_loss, depth_loss_backward,
    marginal_penalty, optimal_confidence,
)

__all__ = [
    "CheckResult", "check_row_stochastic", "check_convex_hull", "check_norm_bound",
    "check_elu_nonexpansive", "check_permutation_equivariance", "check_sparse_dense",
    "check_gradients", "check_optimal_confidence", "GRADIENT_CHECKS", "finite_diff_grad",
    "finite_diff_error", "run_property_suite",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_instance(rng, max_l=64, max_c=32, max_k=9):
    l = int(rng.integers(4, max_l + 1))
    c = int(rng.integers(2, max_c + 1))
    k = int(rng.integers(1, min(max_k, l - 1) + 1))
    x = rng.standard_normal((l, c))
    params = dg.init_degat_params(c, rng=rng)
    return x, params, k


def _hops(n, seed, **sizes):
    """``n`` random instances from ``seed`` with their hop: (x, params, k, x_out, cache)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x, params, k = _random_instance(rng, **sizes)
        yield (x, params, k, *dg.degat_forward(x, params, k))


def check_row_stochastic(n_instances=1000, seed=0, tol=1e-12):
    worst = 0.0
    for *_, cache in _hops(n_instances, seed):
        if np.any(cache.alpha < 0.0):
            return CheckResult("row_stochastic", False, "negative attention weight")
        worst = max(worst, float(np.max(np.abs(cache.alpha.sum(axis=1) - 1.0))))
    return CheckResult(
        "row_stochastic", worst <= tol, f"max |row sum - 1| = {worst:.3e}"
    )


def check_convex_hull(n_instances=1000, seed=1, tol=1e-12):
    worst = 0.0
    for *_, cache in _hops(n_instances, seed):
        v_nb = cache.values[cache.graph.neighbors]  # (L, K, C)
        lo = v_nb.min(axis=1) - tol
        hi = v_nb.max(axis=1) + tol
        viol = max(
            float(np.max(lo - cache.messages, initial=0.0)),
            float(np.max(cache.messages - hi, initial=0.0)),
        )
        worst = max(worst, viol)
    return CheckResult("convex_hull", worst <= tol, f"max bound violation = {worst:.3e}")


def check_norm_bound(n_instances=1000, seed=2, tol=1e-9):
    worst = -np.inf
    for x, _, _, x_out, cache in _hops(n_instances, seed):
        out_norm = np.linalg.norm(x_out, axis=1)
        in_norm = np.linalg.norm(x, axis=1)
        v_norm = np.linalg.norm(cache.values, axis=1)
        bound = in_norm + v_norm[cache.graph.neighbors].max(axis=1)
        worst = max(worst, float(np.max(out_norm - bound)))
    return CheckResult("norm_bound", worst <= tol, f"max excess = {worst:.3e}")


def check_elu_nonexpansive(n=10000, seed=3):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-50.0, 50.0, n)
    ok = bool(np.all(np.abs(elu(z)) <= np.abs(z)))
    return CheckResult("elu_nonexpansive", ok, f"{n} samples in [-50, 50]")


def check_permutation_equivariance(n_perms=100, seed=4, tol=1e-9):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_perms):
        x, params, k = _random_instance(rng, max_l=24, max_c=12)
        out, _ = dg.degat_forward(x, params, k)
        perm = rng.permutation(x.shape[0])
        out_perm, _ = dg.degat_forward(x[perm], params, k)
        worst = max(worst, float(np.max(np.abs(out[perm] - out_perm))))
    return CheckResult(
        "permutation_equivariance", worst <= tol, f"max deviation = {worst:.3e}"
    )


def check_sparse_dense(n_instances=100, seed=5, tol=1e-12):
    worst = 0.0
    for x, params, k, x_out, cache in _hops(n_instances, seed, max_l=32, max_c=16):
        a_dense = dg.dense_affinity(cache)
        dense_out = x + elu(a_dense @ x @ params.w_val.T)
        worst = max(worst, float(np.max(np.abs(x_out - dense_out))))
        if cache.graph.neighbors.size != x.shape[0] * k:
            return CheckResult("sparse_dense", False, "edge count mismatch")
    return CheckResult("sparse_dense", worst <= tol, f"max |sparse - dense| = {worst:.3e}")


def finite_diff_grad(loss, array, step=1e-5):
    """Central finite-difference gradient of the scalar ``loss()`` in ``array``.

    Each entry is moved to orig +/- step in place, where ``loss`` sees it, and
    restored afterwards, also when ``loss`` raises; strided views work too.
    """
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.flags.writeable):
        raise ValueError("finite differences perturb a writeable float64 array in place")
    grad = np.empty(array.shape)
    for idx in np.ndindex(array.shape):
        orig = array[idx]
        try:
            array[idx] = orig + step
            f_plus = loss()
            array[idx] = orig - step
            f_minus = loss()
        finally:
            array[idx] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite evaluation at index {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def finite_diff_error(loss, pairs, step=1e-5):
    """Max of |analytic - numeric| / max(1, |analytic|) over every entry of
    the ``(array, analytic gradient)`` pairs; inf if an analytic entry is
    nan or infinite, so that no comparison or ``max`` can drop it."""
    worst = 0.0
    for array, analytic in pairs:
        if np.shape(analytic) != array.shape:
            raise ValueError(f"gradient shape {np.shape(analytic)} != array shape {array.shape}")
        if not np.all(np.isfinite(analytic)):
            return np.inf
        numeric = finite_diff_grad(loss, array, step)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(err.max(initial=0.0)))
    return worst


# The gradient-check table: each row draws one instance of a hand-written
# backward from an rng and returns (loss, pairs), a closure giving the scalar
# loss of the instance's arrays and each array with its analytic gradient.


def _pairs(layer, grads):
    """Each field of ``layer`` with its gradient from a backward's grads dict.

    The fields come from the layer, so a backward that leaves one out, or
    returns a gradient for something else, raises instead of going unchecked.
    """
    names = getattr(layer, "_fields", None) or tuple(vars(layer))
    if set(grads) != set(names):
        raise ValueError(f"gradients for {sorted(grads)}, but the fields are {sorted(names)}")
    return [(getattr(layer, w), grads[w]) for w in names]


def _degat_case(rng, l=8, c=4, k=3, frames=None):
    x = rng.standard_normal((l, c) if frames is None else (frames, l, c))
    params = dg.init_degat_params(c, rng=rng)
    weight = rng.standard_normal(x.shape)
    g = dg.degat_backward(dg.degat_forward(x, params, k)[1], params, weight)
    return (lambda: float(np.sum(weight * dg.degat_forward(x, params, k)[0])),
            [(params.w_proj, g.d_w_proj), (params.a, g.d_a), (params.w_val, g.d_w_val), (x, g.d_x)])


def _bias_table_case(rng, l=5, c=4, heads=2, n_buckets=4):
    """The bucket table through one biased attention per head."""
    feats, q, k, v = (rng.standard_normal((l, c)) for _ in range(4))
    weight = rng.standard_normal((heads, l, c))
    table = rng.standard_normal((n_buckets, heads))
    bias, idx = cond.bucket_bias(feats, table)
    d_bias = np.stack([cond.biased_attention_backward(cond.biased_attention(q, k, v, b)[1], w)[3]
                       for b, w in zip(bias, weight)])

    def loss():
        bias, _ = cond.bucket_bias(feats, table)
        return sum(float(np.sum(w * cond.biased_attention(q, k, v, b)[0]))
                   for b, w in zip(bias, weight))

    return loss, [(table, cond.bias_table_gradient(d_bias, idx, n_buckets))]


def _bias_mlp_case(rng, l=5, c=4, heads=2, hidden=6):
    feats = rng.standard_normal((l, c))
    weight = rng.standard_normal((heads, l, l))
    mlp = cond.init_mlp2(1, hidden, heads, rng=rng)
    grads = cond.mlp_bias_backward(mlp, cond.mlp_bias(feats, mlp)[1], weight)
    return lambda: float(np.sum(weight * cond.mlp_bias(feats, mlp)[0])), _pairs(mlp, grads)


def _prior_case(kind, rng, c=6, hidden=4):
    """Additive or FiLM conditioning of a base token on a prior g."""
    # the token block is drawn unused: the draw order fixes the printed digits
    base, g, _, weight = (rng.standard_normal(c), rng.standard_normal(c),
                          rng.standard_normal((5, c)), rng.standard_normal(c))
    mlp = cond.init_mlp2(c, hidden, (2 if kind == "film" else 1) * c, rng=rng)
    fwd, bwd = (getattr(cond, f"condition_{kind}{end}") for end in ("", "_backward"))
    grads, d_base, d_g = bwd(mlp, fwd(base, g, mlp)[1], weight)
    return (lambda: float(np.dot(weight, fwd(base, g, mlp)[0])),
            _pairs(mlp, grads) + [(base, d_base), (g, d_g)])


def _cross_attn_case(rng, c=4, l=3, heads=2, hidden=4):
    base, tokens, weight = rng.standard_normal(c), rng.standard_normal((l, c)), rng.standard_normal(c)
    attn = cond.init_cross_attn(c, rng=rng, zero_output=False)
    ffn = cond.init_mlp2(c, hidden, c, rng=rng)
    _, cache = cond.condition_cross_attention(base, tokens, attn, ffn, heads)
    ag, fg, d_base, d_tokens = cond.condition_cross_attention_backward(attn, ffn, cache, weight)

    def loss():
        tok, _ = cond.condition_cross_attention(base, tokens, attn, ffn, heads)
        return float(np.dot(weight, tok))

    return loss, _pairs(attn, ag) + _pairs(ffn, fg) + [(base, d_base), (tokens, d_tokens)]


def _mlp2_case(rng, n_in=3, hidden=4, n_out=2):
    """The GELU MLP on a single input vector."""
    mlp = cond.init_mlp2(n_in, hidden, n_out, rng=rng)
    x = rng.standard_normal(n_in)
    weight = rng.standard_normal(n_out)
    grads, d_x = cond.mlp2_backward(mlp, cond.mlp2_forward(mlp, x)[1], weight)
    return lambda: float(weight @ cond.mlp2_forward(mlp, x)[0]), _pairs(mlp, grads) + [(x, d_x)]


def _multi_head_attention_case(rng, c=4, heads=2, n=3, m=5):
    """N queries on M keys with a per-head bias, through ``biased_attention``."""
    attn = cond.init_cross_attn(c, rng=rng, zero_output=False)
    x_q, x_kv = rng.standard_normal((n, c)), rng.standard_normal((m, c))
    bias = rng.standard_normal((heads, n, m))
    weight = rng.standard_normal((n, c))
    _, cache = cond.multi_head_attention(x_q, x_kv, attn, heads, bias)
    grads, d_q, d_kv, d_bias = cond.multi_head_attention_backward(attn, cache, weight)

    def loss():
        return float(np.sum(weight * cond.multi_head_attention(x_q, x_kv, attn, heads, bias)[0]))

    return loss, _pairs(attn, grads) + [(x_q, d_q), (x_kv, d_kv), (bias, d_bias)]


def _depth_loss_case(rng, frames=2, h=3, w=4):
    """reg + unc + grad over stacked frames."""
    gt = rng.uniform(0.5, 2.0, (frames, h, w))
    # positive residuals on a checkerboard of two bands, U(0.05, 0.1) and
    # U(0.2, 0.25): the x/y differences that |.| reads stay >= 0.1, far from its kink
    lift = 0.15 * (np.indices((h, w)).sum(axis=0) % 2)
    pred = DepthMap(gt + rng.uniform(0.05, 0.1, gt.shape) + lift,
                    rng.uniform(0.5, 2.0, gt.shape))
    weights = LossWeights(alpha=0.3, gamma=1.7)
    grads = depth_loss_backward(depth_loss(pred, gt, weights)[1])
    return lambda: depth_loss(pred, gt, weights)[0].total, _pairs(pred, grads)


def _camera_loss_case(rng, frames=2):
    """The L1 camera loss over stacked frames."""
    gt = {f: rng.standard_normal(shape) for f, shape in (
        ("rotation", (frames, 3, 3)), ("translation", (frames, 3)), ("focal", (frames,)))}
    pred = {f: g + rng.choice((-1.0, 1.0), g.shape) * rng.uniform(0.05, 0.3, g.shape)
            for f, g in gt.items()}  # every entry steps clear of |.|'s kink
    pred, gt = SimpleNamespace(**pred), SimpleNamespace(**gt)
    return lambda: camera_loss(pred, gt)[0], _pairs(pred, camera_loss(pred, gt)[1])


GRADIENT_CHECKS = {
    "degat": _degat_case,
    "bias_table": _bias_table_case,
    "bias_mlp": _bias_mlp_case,
    "additive": functools.partial(_prior_case, "additive"),
    "film": functools.partial(_prior_case, "film"),
    "cross_attn": _cross_attn_case,
    "mlp2": _mlp2_case,
    "multi_head_attention": _multi_head_attention_case,
    "depth_loss": _depth_loss_case,
    "camera_loss": _camera_loss_case,
}
_CHECK_SEEDS = {"degat": range(3)}  # each seed gives the hop another graph; others use seed 0


def check_gradients(tol=1e-4):
    errs = {
        name: max(finite_diff_error(*make(np.random.default_rng(s)))
                  for s in _CHECK_SEEDS.get(name, range(1)))
        for name, make in GRADIENT_CHECKS.items()
    }
    worst = max(errs.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    return CheckResult("gradient_fidelity", worst <= tol, detail)


def check_optimal_confidence(n=100, seed=6, tol=1e-6, exact_tol=1e-12):
    rng = np.random.default_rng(seed)
    worst_min = 0.0
    worst_sub = 0.0
    for _ in range(n):
        w = LossWeights(alpha=float(rng.uniform(0.05, 3.0)),
                        gamma=float(rng.uniform(0.05, 3.0)))
        r_sq = float(rng.uniform(0.01, 10.0))
        c_star = optimal_confidence(r_sq, w)
        # golden-section minimization over (0, 1e3]
        lo, hi = 1e-9, 1e3
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        for _ in range(200):
            m1 = b - phi * (b - a)
            m2 = a + phi * (b - a)
            if confidence_objective(m1, r_sq, w) < confidence_objective(m2, r_sq, w):
                b = m2
            else:
                a = m1
        worst_min = max(worst_min, abs(0.5 * (a + b) - c_star))
        worst_sub = max(
            worst_sub,
            abs(confidence_objective(c_star, r_sq, w) - marginal_penalty(r_sq, w)),
        )
        # strict convexity witness and unique-minimum probes
        c1, c2 = c_star * 0.3, c_star * 2.5
        mid = 0.5 * (c1 + c2)
        if not (
            confidence_objective(mid, r_sq, w)
            < 0.5 * (confidence_objective(c1, r_sq, w) + confidence_objective(c2, r_sq, w)) + 1e-12
        ):
            return CheckResult("optimal_confidence", False, "convexity violated")
        j_star = confidence_objective(c_star, r_sq, w)
        for delta in (0.1 * c_star, 0.5 * c_star):
            if not (confidence_objective(c_star + delta, r_sq, w) > j_star
                    and confidence_objective(c_star - delta, r_sq, w) > j_star):
                return CheckResult("optimal_confidence", False, "minimum not unique")
    ok = worst_min <= tol and worst_sub <= exact_tol
    return CheckResult(
        "optimal_confidence", ok,
        f"max |argmin - closed form| = {worst_min:.2e}, "
        f"max |J(C*) - penalty| = {worst_sub:.2e}",
    )


def run_property_suite(fast=False):
    n = 100 if fast else 1000
    return [
        check_row_stochastic(n_instances=n),
        check_convex_hull(n_instances=n),
        check_norm_bound(n_instances=n),
        check_elu_nonexpansive(n=1000 if fast else 10000),
        check_permutation_equivariance(n_perms=20 if fast else 100),
        check_sparse_dense(n_instances=20 if fast else 100),
        check_gradients(),
        check_optimal_confidence(n=20 if fast else 100),
    ]
