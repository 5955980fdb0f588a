"""Dense feed-forward networks with exact backpropagation.

Hidden layers use leaky ReLU (slope 0.01); the output layer is tanh or
identity.  ``forward`` accepts a single vector or a (batch, features) matrix;
``backward`` returns parameter gradients summed over the batch plus the
gradient with respect to the input, which is how the critic's action
gradient reaches the actor.

A ``GradientTape`` owns every array of the pass it records, so what a taped
pass returns stays valid until that tape's next pass.

Each network keeps all its parameters in one contiguous float64 vector,
``Mlp.params``: every weight matrix row-major (layer by layer, shaped
(fan_out, fan_in)), then every bias vector.  This is exactly the payload of
a weight file.  ``Mlp.weights``/``Mlp.biases`` are per-layer views into it.
A network's parameter gradients are an ``Mlp`` too, over the tape's vector
shaped like ``params``, and the Adam moments use the same layout, so cloning,
saving, loading, an Adam step and a soft target update are each a few
whole-vector operations.

Weight files are a fixed little-endian binary layout (see ``save_weights``)
that round-trips bit-exactly.
"""
from __future__ import annotations

import struct

import numpy as np

LEAKY_SLOPE = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
WEIGHTS_MAGIC = b"RLAMW1"

_ACTIVATION_TAGS = {"tanh": 0, "identity": 1}
_TAG_ACTIVATIONS = {v: k for k, v in _ACTIVATION_TAGS.items()}


class WeightsError(ValueError):
    """Base class for weight-file problems."""


class WeightsFormatError(WeightsError):
    """Bad magic bytes, an unknown activation tag, trailing bytes or non-finite values."""


class WeightsShapeError(WeightsError):
    """Layer dimensions are invalid or do not match what the caller expects."""


class WeightsTruncatedError(WeightsError):
    """File ends before the advertised parameters are all present."""


def _leaky(z: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # equals np.where(z > 0, z, LEAKY_SLOPE * z) for every finite z
    a = np.multiply(z, LEAKY_SLOPE, out=out)
    return np.maximum(z, a, out=a)


def _untaped(key, shape) -> None:
    """Stands in for ``GradientTape.buffer`` in an untaped pass: numpy allocates."""


def _layer_views(flat: np.ndarray, dims) -> tuple[list, list]:
    """Per-layer weight and bias views into a flat vector in weight-file order."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
    for fan_out in dims[1:]:
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


def _param_count(dims) -> int:
    return sum(o * i for i, o in zip(dims[:-1], dims[1:])) + sum(dims[1:])


class GradientTape:
    """One recorded pass of a network, consumed by ``Mlp.backward``.

    The tape owns every array of the pass: each layer's pre-activation and
    activation, backward's ``dz`` and upstream products, and the parameter
    gradients, an ``Mlp`` over a vector shaped like the network's ``params``
    that is never run forward.  Each is allocated on first use and again
    only when its shape changes.  So what a taped ``forward`` or ``backward``
    returns stays valid until this tape's next pass.
    """

    def __init__(self):
        self.inputs = None       # list of layer inputs, one per weight layer
        self.pre_acts = None     # list of pre-activations z_k
        self.output = None
        self.grads = None
        self._arrays = {}

    def buffer(self, key, shape) -> np.ndarray:
        """The tape's float64 array for ``key``, reallocated if ``shape`` changed."""
        a = self._arrays.get(key)
        if a is None or a.shape != shape:
            a = self._arrays[key] = np.empty(shape)
        return a


class Mlp:
    """Dense network over one contiguous float64 parameter vector, not copied.

    ``params`` holds every weight matrix row-major, then every bias vector,
    which is also the weight-file payload; ``weights`` and ``biases`` are
    per-layer views into it, so writing through them changes ``params``.
    """

    def __init__(self, layer_dims, params: np.ndarray, output_activation: str):
        dims = list(layer_dims)
        if output_activation not in _ACTIVATION_TAGS:
            raise ValueError(f"unknown output activation {output_activation!r}")
        if params.shape != (_param_count(dims),) or params.dtype != np.float64:
            raise ValueError(f"layer dims {dims} need {_param_count(dims)} float64 parameters")
        self.layer_dims = dims
        self.params = params
        self.weights, self.biases = _layer_views(params, dims)
        self.output_activation = output_activation

    @classmethod
    def init(cls, layer_dims, output_activation: str, rng: np.random.Generator) -> "Mlp":
        """Seeded uniform(+-1/sqrt(fan_in)) initialization."""
        net = cls(layer_dims, np.empty(_param_count(layer_dims)), output_activation)
        # draw order: layer by layer, weights before biases
        for w, b in zip(net.weights, net.biases):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)
        return net

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def clone(self) -> "Mlp":
        return Mlp(self.layer_dims, self.params.copy(), self.output_activation)

    def forward(self, x, tape: GradientTape | None = None) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        single = a.ndim == 1
        if single:
            a = a[None, :]
        if a.shape[1] != self.layer_dims[0]:
            raise ValueError(f"expected input width {self.layer_dims[0]}, got {a.shape[1]}")
        buffer = _untaped if tape is None else tape.buffer
        inputs, pre_acts = [], []
        last = self.n_layers - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            z = np.matmul(a, w.T, out=buffer(("z", k), (a.shape[0], w.shape[0])))
            z += b
            pre_acts.append(z)
            if k < last:
                a = _leaky(z, buffer(("a", k), z.shape))
            elif self.output_activation == "tanh":
                a = np.tanh(z, out=buffer(("a", k), z.shape))
            else:
                a = z
        if tape is not None:
            tape.inputs, tape.pre_acts, tape.output = inputs, pre_acts, a
        return a[0] if single else a

    def backward(self, tape: GradientTape, output_grad, param_grads: bool = True,
                 input_grad: bool = True) -> tuple[Mlp | None, np.ndarray | None]:
        """Backpropagate ``output_grad`` through the pass recorded on ``tape``.

        Returns parameter gradients (summed over the batch) and the gradient
        with respect to the network input, shaped like the forward input.
        Both live in the tape's buffers (see ``GradientTape``).  With
        ``param_grads=False`` only the input gradient is computed and the
        first element is None; with ``input_grad=False`` the first layer's
        input product is skipped and the second element is None.
        """
        if tape is None or tape.output is None:
            raise RuntimeError("backward requires a forward pass recorded on the tape")
        g = np.asarray(output_grad, dtype=float)
        single = g.ndim == 1
        if single:
            g = g[None, :]
        if g.shape != tape.output.shape:
            raise ValueError(f"output_grad shape {g.shape} != output shape {tape.output.shape}")
        if param_grads and (tape.grads is None or tape.grads.layer_dims != self.layer_dims):
            tape.grads = Mlp(self.layer_dims, np.empty_like(self.params), self.output_activation)
        grads = tape.grads if param_grads else None
        upstream = g
        for k in range(self.n_layers - 1, -1, -1):
            dz = tape.buffer(("dz", k), upstream.shape)
            if k < self.n_layers - 1:
                # upstream times the leaky-ReLU derivative, exactly 1.0 or LEAKY_SLOPE
                np.greater(tape.pre_acts[k], 0.0, out=dz)
                dz *= 1.0 - LEAKY_SLOPE
                dz += LEAKY_SLOPE
                dz *= upstream
            elif self.output_activation == "tanh":  # upstream * (1 - output**2)
                np.multiply(tape.output, tape.output, out=dz)
                np.subtract(1.0, dz, out=dz)
                np.multiply(upstream, dz, out=dz)
            else:
                np.copyto(dz, upstream)
            if grads is not None:
                np.matmul(dz.T, tape.inputs[k], out=grads.weights[k])
                dz.sum(axis=0, out=grads.biases[k])
            if k > 0 or input_grad:
                upstream = np.matmul(dz, self.weights[k],
                                     out=tape.buffer(("up", k), tape.inputs[k].shape))
        if not input_grad:
            return grads, None
        return grads, (upstream[0] if single else upstream)


class AdamState:
    """First/second-moment vectors for one network, laid out like its
    ``params``, plus two scratch vectors so a step allocates nothing."""

    def __init__(self, net: Mlp):
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self._step = np.empty_like(net.params)
        self._denom = np.empty_like(net.params)


def adam_update(net: Mlp, grads: Mlp, state: AdamState, lr: float) -> None:
    """One in-place Adam step with bias correction.

    Every parameter sees, in order, with b1, b2, eps = ``ADAM_BETA1``,
    ``ADAM_BETA2``, ``ADAM_EPS``:
    m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    p -= lr*(m/corr1) / (sqrt(v/corr2) + eps).
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    g = grads.params
    if g.shape != net.params.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {net.params.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    m, v, step, denom = state.m, state.v, state._step, state._denom
    m *= b1
    np.multiply(g, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v += step
    np.divide(m, corr1, out=step)
    step *= lr
    np.divide(v, corr2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    net.params -= step


def soft_update(target: Mlp, source: Mlp, tau: float, scratch: np.ndarray | None = None) -> None:
    """target <- tau * source + (1 - tau) * target, parameter-wise.

    ``scratch``, a float64 vector shaped like the parameters, holds
    ``tau * source`` so that repeated updates allocate nothing.
    """
    target.params *= 1.0 - tau
    target.params += np.multiply(source.params, tau, out=scratch)


def save_weights(net: Mlp, path) -> None:
    """Write the binary weight file.

    Layout: 6 magic bytes "RLAMW1", uint32 LE weight-layer count L, L+1
    uint32 LE layer dims, one activation-tag byte (0=tanh, 1=identity), then
    every weight matrix (row-major) followed by every bias vector,
    layer-by-layer, as little-endian float64.
    """
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<I", net.n_layers))
        f.write(struct.pack(f"<{net.n_layers + 1}I", *net.layer_dims))
        f.write(struct.pack("B", _ACTIVATION_TAGS[net.output_activation]))
        f.write(net.params.astype("<f8", copy=False).tobytes())


def load_weights(path) -> Mlp:
    """Read a weight file back into a fresh ``Mlp`` (bit-exact round trip)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(WEIGHTS_MAGIC) + 4:
        raise WeightsTruncatedError("file too short for the header")
    if data[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise WeightsFormatError(f"bad magic bytes {data[:len(WEIGHTS_MAGIC)]!r}")
    offset = len(WEIGHTS_MAGIC)
    (n_layers,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if n_layers < 1 or n_layers > 1024:
        raise WeightsShapeError(f"implausible layer count {n_layers}")
    if len(data) < offset + 4 * (n_layers + 1) + 1:
        raise WeightsTruncatedError("file too short for the dimension table")
    dims = list(struct.unpack_from(f"<{n_layers + 1}I", data, offset))
    offset += 4 * (n_layers + 1)
    if any(d < 1 for d in dims):
        raise WeightsShapeError(f"invalid layer dims {dims}")
    tag = data[offset]
    offset += 1
    if tag not in _TAG_ACTIVATIONS:
        raise WeightsFormatError(f"unknown activation tag {tag}")
    n_params = _param_count(dims)
    payload = data[offset:]
    if len(payload) < 8 * n_params:
        raise WeightsTruncatedError(
            f"payload holds {len(payload) // 8} of {n_params} parameters"
        )
    if len(payload) > 8 * n_params:
        raise WeightsFormatError(f"{len(payload) - 8 * n_params} trailing bytes after payload")
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    bad = int(np.count_nonzero(~np.isfinite(params)))
    if bad:
        raise WeightsFormatError(f"{bad} of {n_params} parameters are not finite")
    return Mlp(dims, params, _TAG_ACTIVATIONS[tag])
