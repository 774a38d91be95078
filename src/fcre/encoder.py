"""Two-layer tanh encoder, bilinear score matrix, and Adam updates.

The encoder maps a raw feature vector x (dim f) to an embedding
z = tanh(W2 @ tanh(W1 @ x + b1) + b2) of dim d.  Gradients are
hand-derived and returned as a flat vector in the canonical packing
order [W1, b1, W2, b2]; the optimizer operates on flat vectors only,
so callers may concatenate extra trainable blocks (the bilinear matrix)
onto the same parameter vector.  ``_embed`` embeds a checked (n, f)
block of rows with two matrix products, keeping the hidden and output
activations; ``_backward`` chains a (n, d) output gradient through those
activations to the gradient summed over the rows, as matrix products
(dW1 = dH_pre^T X, db1 = sum of the rows of dH_pre, ...), written into
the views of a flat gradient buffer.  Neither checks anything: a
training step runs each once on rows that ``Task`` or the replay memory
checked when they came in.  The public entry points check their inputs
once and call them: ``encode_batch`` checks a block with
``formats._as_matrix`` and the encoder's feature width, and ``encode``
and ``encode_backward`` are one-row views.  ``EncoderParams`` and
``BilinearForm`` check their arrays with ``_as_matrix`` too.  The
weights are views into one flat parameter vector, and Adam updates the
vector and its moments in place; the public ``step`` runs the same
update on copies.  No serialization lives here: ``continual`` owns the
checkpoint format, its encoder block included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from fcre.formats import _as_matrix, _at_least

_BILINEAR_NOISE = 0.01  # scale of the Gaussian noise added to W's identity start
_ADAM_BETA1 = 0.9  # Adam's first-moment decay
_ADAM_BETA2 = 0.999  # Adam's second-moment decay
_ADAM_EPS = 1e-8  # Adam's denominator floor


@dataclass
class EncoderParams:
    """Weights of the two-layer tanh MLP: ``formats._as_matrix`` checks each
    array in the order w1, b1, w2, b2, then the layer shapes must agree."""

    w1: np.ndarray  # (hidden_dim, feature_dim)
    b1: np.ndarray  # (hidden_dim,)
    w2: np.ndarray  # (embed_dim, hidden_dim)
    b2: np.ndarray  # (embed_dim,)

    def __post_init__(self) -> None:
        self.w1 = _as_matrix(self.w1, "w1")
        self.b1 = _as_matrix(self.b1, "b1", 1)
        self.w2 = _as_matrix(self.w2, "w2")
        self.b2 = _as_matrix(self.b2, "b2", 1)
        h, f = self.w1.shape
        d, h2 = self.w2.shape
        if h2 != h:
            raise ValueError(
                f"layer shapes disagree: W1 is {h}x{f} but W2 expects {h2} hidden units"
            )
        if self.b1.shape != (h,) or self.b2.shape != (d,):
            raise ValueError("bias shapes do not match weight shapes")

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    @property
    def n_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters in the order [W1, b1, W2, b2]."""
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )

    def with_vector(self, vec: np.ndarray) -> "EncoderParams":
        """Parameters of this shape as views over a copy of a flat vector.

        The shapes hold by construction, so only finiteness is checked,
        once over the whole vector; a failure names the first weight
        array that holds a non-finite entry.
        """
        vec = np.array(vec, dtype=np.float64)  # one copy, shared by the four views
        if vec.shape != (self.n_params,):
            raise ValueError(
                f"expected a flat vector of {self.n_params} entries, got {vec.shape}"
            )
        params = self._views(vec)
        if not np.isfinite(vec).all():  # the constructor raises, naming the array
            EncoderParams(params.w1, params.b1, params.w2, params.b2)
        return params

    def _views(self, vec: np.ndarray) -> "EncoderParams":
        """Arrays of this shape as views into the flat [W1, b1, W2, b2] vector ``vec``, unchecked."""
        f, h, d = self.feature_dim, self.hidden_dim, self.embed_dim
        i = 0
        w1 = vec[i : i + h * f].reshape(h, f)
        i += h * f
        b1 = vec[i : i + h]
        i += h
        w2 = vec[i : i + d * h].reshape(d, h)
        i += d * h
        b2 = vec[i : i + d]
        params = object.__new__(EncoderParams)  # skips __post_init__'s per-array checks
        params.w1, params.b1, params.w2, params.b2 = w1, b1, w2, b2
        return params


def init_encoder(
    feature_dim: int, hidden_dim: int, embed_dim: int, rng: np.random.Generator
) -> EncoderParams:
    """Uniform init scaled by 1/sqrt(fan_in) for each layer."""
    for name, value in (
        ("feature_dim", feature_dim),
        ("hidden_dim", hidden_dim),
        ("embed_dim", embed_dim),
    ):
        _at_least(value, 1, name)
    s1 = 1.0 / np.sqrt(feature_dim)
    s2 = 1.0 / np.sqrt(hidden_dim)
    return EncoderParams(
        w1=rng.uniform(-s1, s1, size=(hidden_dim, feature_dim)),
        b1=rng.uniform(-s1, s1, size=hidden_dim),
        w2=rng.uniform(-s2, s2, size=(embed_dim, hidden_dim)),
        b2=rng.uniform(-s2, s2, size=embed_dim),
    )


def _feature_rows(params: EncoderParams, features) -> np.ndarray:
    """A finite (n, f) block of feature rows for this encoder, checked by ``_as_matrix``."""
    x = _as_matrix(features, "features")
    if x.shape[1] != params.feature_dim:
        raise ValueError(
            f"features have {x.shape[1]} entries, encoder expects {params.feature_dim}"
        )
    return x


class _Activations(NamedTuple):
    """One forward pass over a block of rows: what ``_backward`` needs."""

    x: np.ndarray  # (n, f) checked feature rows
    hidden: np.ndarray  # (n, h)
    z: np.ndarray  # (n, d) embeddings, entries in (-1, 1)


def _embed(params: EncoderParams, x: np.ndarray) -> _Activations:
    """Embed (n, f) float rows checked by ``_feature_rows``, ``Task`` or the memory."""
    hidden = np.tanh(x @ params.w1.T + params.b1)
    return _Activations(x, hidden, np.tanh(hidden @ params.w2.T + params.b2))


def _backward(
    params: EncoderParams, acts: _Activations, grad_out: np.ndarray, out: EncoderParams
) -> None:
    """Chain a checked (n, d) ``grad_out`` back through ``acts``, from ``_embed`` with ``params``.

    Writes the sum over rows of d(loss)/d(params) into the arrays of
    ``out``: views of a flat [W1, b1, W2, b2] vector, by ``params._views``.
    """
    x, hidden, z = acts
    dz_pre = grad_out * (1.0 - z * z)
    np.matmul(dz_pre.T, hidden, out=out.w2)
    np.add.reduce(dz_pre, axis=0, out=out.b2)  # dz_pre.sum(axis=0)
    dh_pre = (dz_pre @ params.w2) * (1.0 - hidden * hidden)
    np.matmul(dh_pre.T, x, out=out.w1)
    np.add.reduce(dh_pre, axis=0, out=out.b1)


def encode_batch(params: EncoderParams, features) -> np.ndarray:
    """Embed each row of a (n, f) block; output entries lie in (-1, 1)."""
    return _embed(params, _feature_rows(params, features)).z


def encode(params: EncoderParams, features) -> np.ndarray:
    """Embed one feature vector; output entries lie in (-1, 1)."""
    x = _as_matrix(features, "features", 1)
    return encode_batch(params, x[None, :])[0]


def encode_backward(params: EncoderParams, features, grad_out) -> np.ndarray:
    """Chain ``grad_out`` (dL/dz) of one sample back to a flat parameter gradient.

    Returns d(loss)/d(params) packed in the same [W1, b1, W2, b2] order
    as ``EncoderParams.to_vector``.
    """
    x = _feature_rows(params, _as_matrix(features, "features", 1)[None, :])
    grad_out = _as_matrix(grad_out, "grad_out", 1)
    if grad_out.shape != (params.embed_dim,):
        raise ValueError(
            f"grad_out must have shape ({params.embed_dim},), got {grad_out.shape}"
        )
    out = np.empty(params.n_params)
    _backward(params, _embed(params, x), grad_out[None, :], params._views(out))
    return out


@dataclass
class BilinearForm:
    """Trainable d x d matrix W for bilinear scores z^T W d."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = _as_matrix(self.matrix, "bilinear matrix")
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"bilinear matrix must be square, got {self.matrix.shape}")


def init_bilinear(embed_dim: int, rng: np.random.Generator) -> BilinearForm:
    """Identity plus small Gaussian noise; keeps early scores near cosine."""
    _at_least(embed_dim, 1, "embed_dim")
    noise = rng.standard_normal((embed_dim, embed_dim))
    return BilinearForm(matrix=np.eye(embed_dim) + _BILINEAR_NOISE * noise)


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    step_count: int
    m: np.ndarray
    v: np.ndarray


def init_adam(n_params: int) -> AdamState:
    _at_least(n_params, 1, "n_params")
    return AdamState(step_count=0, m=np.zeros(n_params), v=np.zeros(n_params))


# training updates through ``_adam``; this stays while perfbench's tracer wraps the name
def step(
    opt: AdamState, params: np.ndarray, grads: np.ndarray, learning_rate: float
) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction; returns new params and state.

    The update is ``_adam``'s, on copies of ``params`` and of the state.
    """
    if not learning_rate > 0.0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    params = _as_matrix(params, "params", 1).copy()
    grads = _as_matrix(grads, "grads", 1)
    if params.shape != opt.m.shape or grads.shape != opt.m.shape:
        raise ValueError(
            f"params/grads must match optimizer size {opt.m.shape}, "
            f"got {params.shape} and {grads.shape}"
        )
    new_state = replace(opt, m=opt.m.copy(), v=opt.v.copy())
    _adam(new_state, params, grads, np.empty((2, params.size)), learning_rate)
    return params, new_state


def _adam(
    opt: AdamState, params: np.ndarray, grads: np.ndarray, work: np.ndarray, learning_rate: float
) -> None:
    """One Adam update of ``params``, ``opt.m`` and ``opt.v`` in place, at ``learning_rate``.

    ``work`` is (2, n) scratch space.  Each operation is one of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    params - lr m_hat / (sqrt(v_hat) + eps), in the order those
    expressions evaluate, so the result has their bits.  A non-finite
    gradient raises before anything changes.
    """
    if not np.isfinite(grads).all():
        raise ValueError("gradient contains non-finite entries")
    t = opt.step_count + 1
    m, v, (a, b) = opt.m, opt.v, work
    m *= _ADAM_BETA1
    m += np.multiply(grads, 1.0 - _ADAM_BETA1, out=a)
    v *= _ADAM_BETA2
    np.multiply(grads, 1.0 - _ADAM_BETA2, out=a)
    v += np.multiply(a, grads, out=a)
    np.divide(m, 1.0 - _ADAM_BETA1**t, out=a)  # m_hat
    a *= learning_rate
    np.sqrt(np.divide(v, 1.0 - _ADAM_BETA2**t, out=b), out=b)  # sqrt(v_hat)
    b += _ADAM_EPS
    a /= b
    params -= a
    opt.step_count = t
