"""Float64 validation, ELU/LeakyReLU and their derivatives, and the softmax
with its backward.

``check_arrays`` is the one check of named weight arrays against a shape
table: the model's parameter dict on entry to a step, a checkpoint, and
any single layer's fields.

Everything here is a pure function of its inputs; arrays are treated as
immutable, save an ``out`` array that the caller passes, and all arithmetic
is done in 64-bit floating point. ``softmax`` is the only softmax in the
package, with ``softmax_backward``: the DeGAT neighbor softmax calls it. The
attention kernel in ``conditioning`` takes its steps (the row-max shift, the
exponential and the row sums) over blocks of query rows and keeps each
row's shift, so that its backward can rebuild a block; it divides its output
by the row sums instead of its weights, and calls ``softmax_backward``.
"""

import numpy as np

__all__ = [
    "as_finite",
    "check_shapes",
    "check_arrays",
    "fan_in_uniform",
    "elu",
    "elu_grad",
    "leaky_relu",
    "leaky_relu_grad",
    "softmax",
    "softmax_backward",
]


def as_finite(a, name, ndims):
    """Coerce to a finite float64 array whose rank is one of ``ndims``, raising
    on anything else."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in ndims:
        ranks = " or ".join(f"{d}-D" for d in ndims)
        raise ValueError(f"{name} must be {ranks}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_shapes(shapes, expected):
    """Raise ValueError unless ``shapes`` (name -> shape) lists exactly the
    names of ``expected``, each with its expected shape."""
    if shapes.keys() != expected.keys():
        missing = sorted(expected.keys() - shapes.keys())
        extra = sorted(shapes.keys() - expected.keys())
        raise ValueError(
            f"parameters do not match the config: missing {missing}, unexpected {extra}"
        )
    reshaped = sorted(k for k, shape in shapes.items() if tuple(shape) != expected[k])
    if reshaped:
        raise ValueError(f"parameter shapes do not match the config: {reshaped}")


def check_arrays(arrays, expected):
    """Raise ValueError unless ``arrays`` (name -> ndarray) holds exactly the
    names of ``expected`` (name -> shape), each with its shape and finite;
    the error names every offending key."""
    check_shapes({k: v.shape for k, v in arrays.items()}, expected)
    if not np.isfinite(np.concatenate([v.ravel() for v in arrays.values()])).all():
        bad = sorted(k for k, v in arrays.items() if not np.isfinite(v).all())
        raise ValueError(f"parameters contain non-finite values: {bad}")


def fan_in_uniform(rng, shape):
    """Uniform weights in +-1/sqrt(fan-in), the fan-in being the last axis."""
    s = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-s, s, size=shape)


def elu(x):
    """ELU activation: x for x >= 0, exp(x) - 1 otherwise.

    Computed branch-free as expm1(min(x, 0)) + max(x, 0), where one term is
    an exact 0, so every value has the bits of the two-branch form except
    -0.0, which maps to +0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.expm1(np.minimum(x, 0.0))
    out += np.maximum(x, 0.0)
    return out


def elu_grad(x):
    """Derivative of ELU: exp(min(x, 0)), which is exactly 1 for x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0))


def leaky_relu(x, slope=0.2, out=None):
    """LeakyReLU activation with negative-side slope in (0, 1).

    The result is a new array, or ``out`` when given, which must not be x.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    x = np.asarray(x, dtype=np.float64)
    # slope < 1: the bits of where(x >= 0, x, slope * x), -0.0 included
    return np.maximum(x, np.multiply(x, slope, out=out), out=out)


def leaky_relu_grad(x, slope=0.2, out=None):
    """Derivative of ``leaky_relu``: 1 for x >= 0 (-0.0 included), slope
    otherwise.

    Computed branch-free as slope + (1 - slope) * [x >= 0]; for every slope
    in (0, 1), (1 - slope) + slope rounds to exactly 1. The result is a new
    array, or ``out`` when given.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    x = np.asarray(x, dtype=np.float64)
    d = np.multiply(x >= 0.0, 1.0 - slope, out=out)
    d += slope
    return d


def softmax(logits, out=None):
    """Softmax over the last axis: e = exp(logits - row max), each entry at
    most 1 and each row sum at least 1, divided by its row sums. Logits at
    -inf get 0, so a row may be masked that way as long as one entry stays
    finite. The result is a new array, or ``out`` when given; ``out=logits``
    normalises the logits in place.
    """
    # the reductions of the max and sum methods, without their wrappers
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax_backward(p, d_p, out=None):
    """d(loss)/d(logits) from the softmax output p and d(loss)/dp.

    The result is a new array, or ``out`` when given; ``out=d_p`` turns
    d(loss)/dp into d(loss)/d(logits) in place.
    """
    d = np.subtract(d_p, np.sum(p * d_p, axis=-1, keepdims=True), out=out)
    d *= p
    return d
