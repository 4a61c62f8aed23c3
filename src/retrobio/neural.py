"""
From-scratch feedforward network stack used by the pathway ranking models.

Two architectures are used throughout: the one-step ranker (1024 -> 256
relu + dropout -> 1 sigmoid, 262657 parameters) and the two-step ranker
(1536 -> 512 relu + dropout -> 128 relu + dropout -> 1 sigmoid, 852737
parameters). Everything is plain numpy float32: dense layers, relu/sigmoid,
inverted dropout (inference needs no rescaling), weighted binary
cross-entropy and Adam with the fixed constants ADAM_BETA1 = 0.9,
ADAM_BETA2 = 0.999 and ADAM_EPSILON = 1e-8.

Training is bit-reproducible given (seed, data order): initialization,
epoch shuffles and dropout masks all derive from one seeded generator.
Inputs are the packed rows of ``Fingerprinter.features``, one bit per
feature; only the rows in use, a block, a batch or a history slice, are
unpacked to float32. Each step trains only the first-layer rows that some
training row reaches and runs Adam in cache-sized blocks; both leave every
weight bit as the whole-array update would (``train`` says why), and the
tests keep that whole-array loop as the reference.
Weight files are an exact little-endian binary format (magic "NNPR"), so
save/load round-trips models bit-identically.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

__all__ = [
    "RELU",
    "SIGMOID",
    "NONE",
    "DenseLayer",
    "MlpModel",
    "LayerSpec",
    "TrainConfig",
    "TrainingHistory",
    "GradientCheckReport",
    "DimensionMismatch",
    "EmptyDataset",
    "SingleClassDataset",
    "GradientMismatch",
    "BadMagic",
    "VersionMismatch",
    "TruncatedFile",
    "DimChainBroken",
    "NaNScore",
    "Diverged",
    "nn1pr_spec",
    "nn2pr_spec",
    "initialize",
    "forward",
    "bce_loss",
    "train",
    "gradient_check",
    "save_weights",
    "load_weights",
]

RELU = "relu"
SIGMOID = "sigmoid"
NONE = "none"

_ACT_CODES = {RELU: 0, SIGMOID: 1, NONE: 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

LOSS_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
BLOCK_ROWS = 64  # rows per inference block; fixed, so scores are row-stable
HISTORY_ROWS = 512  # rows per slice of the training-history pass
ADAM_BLOCK = 1 << 16  # elements per Adam block: 256 KiB of float32, in cache


class DimensionMismatch(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


class SingleClassDataset(ValueError):
    pass


class GradientMismatch(AssertionError):
    pass


class BadMagic(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


class TruncatedFile(ValueError):
    pass


class DimChainBroken(ValueError):
    pass


class NaNScore(FloatingPointError):
    """``model`` scored a row NaN: finite weights can overflow float32 on a
    row, and inf - inf is NaN. The fault is the model's, not the input's."""

    def __init__(self, model: MlpModel):
        super().__init__("the model scores a row NaN (its weights overflow float32)")
        self.model = model


class Diverged(FloatingPointError):
    """Training overflowed float32; the fault is the learning rate's, not
    the data's."""


@dataclass(frozen=True)
class DenseLayer:
    """One dense layer: out = activation(x @ weights + biases).

    ``dropout`` is the inverted-dropout rate applied to this layer's output
    during training only; 0 disables it.
    """

    weights: np.ndarray  # shape (in_dim, out_dim), float32
    biases: np.ndarray  # shape (out_dim,), float32
    activation: str = NONE
    dropout: float = 0.0

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def parameter_count(self) -> int:
        return self.weights.size + self.biases.size


@dataclass(frozen=True)
class MlpModel:
    layers: tuple[DenseLayer, ...]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimChainBroken(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def parameter_count(self) -> int:
        return sum(layer.parameter_count for layer in self.layers)

    def astype(self, dtype) -> "MlpModel":
        return MlpModel(
            tuple(
                DenseLayer(
                    l.weights.astype(dtype), l.biases.astype(dtype),
                    l.activation, l.dropout,
                )
                for l in self.layers
            )
        )


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str
    dropout: float = 0.0


def nn1pr_spec(dropout: float = 0.2) -> tuple[LayerSpec, ...]:
    """One-step ranker: 1024 -> 256 relu (dropout) -> 1 sigmoid."""
    return (
        LayerSpec(1024, 256, RELU, dropout),
        LayerSpec(256, 1, SIGMOID, 0.0),
    )


def nn2pr_spec(dropout: float = 0.2) -> tuple[LayerSpec, ...]:
    """Two-step ranker: 1536 -> 512 relu -> 128 relu -> 1 sigmoid."""
    return (
        LayerSpec(1536, 512, RELU, dropout),
        LayerSpec(512, 128, RELU, dropout),
        LayerSpec(128, 1, SIGMOID, 0.0),
    )


def initialize(
    spec: tuple[LayerSpec, ...], rng: np.random.Generator
) -> MlpModel:
    """Glorot-uniform weights, zero biases, drawn from ``rng`` in layer order."""
    layers = []
    for s in spec:
        limit = np.sqrt(6.0 / (s.in_dim + s.out_dim))
        w = rng.uniform(-limit, limit, size=(s.in_dim, s.out_dim))
        layers.append(
            DenseLayer(
                w.astype(np.float32),
                np.zeros(s.out_dim, dtype=np.float32),
                s.activation,
                s.dropout,
            )
        )
    return MlpModel(tuple(layers))


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == RELU:
        return np.maximum(z, 0)
    if name == SIGMOID:
        # Saturation-safe: exp only ever sees non-positive arguments.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z


def _forward_full(
    model: MlpModel,
    x: np.ndarray,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray | None]]:
    """Forward pass keeping per-layer activations and dropout masks."""
    activations = [x]
    masks: list[np.ndarray | None] = []
    h = x
    for layer in model.layers:
        z = h @ layer.weights + layer.biases
        h = _activate(layer.activation, z)
        if rng is not None and layer.dropout > 0.0:
            keep = 1.0 - layer.dropout
            mask = (rng.random(h.shape) < keep).astype(h.dtype) / keep
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)
        activations.append(h)
    return h, activations, masks


def _require_packed(arr: np.ndarray, dim: int) -> None:
    """Raise DimensionMismatch unless ``arr`` is no rows or packed rows for
    input width ``dim``: uint8, dim/8 bytes each, little-endian bit order."""
    if arr.ndim != 2 or arr.dtype != np.uint8 or len(arr) and arr.shape[1] * 8 != dim:
        raise DimensionMismatch(f"{arr.dtype} inputs of shape {arr.shape} are not "
                                f"packed rows of {dim // 8} bytes")


def _unpacked(arr: np.ndarray, index) -> np.ndarray:
    return np.unpackbits(arr[index], axis=1, bitorder="little")


@np.errstate(over="ignore", invalid="ignore")
def forward(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Score packed rows, an (n, d/8) uint8 array in little-endian bit order,
    unpacked one block at a time; any other array raises DimensionMismatch.

    Returns n scores strictly inside (0, 1); a model with other than one
    output raises DimensionMismatch, and a row scored NaN raises NaNScore.
    Rows run in zero-padded blocks of BLOCK_ROWS, so every matrix product
    has one shape and a row's score has the same bits whatever the other
    rows are, their order or the row's block. Dropout is off.
    """
    dim = model.input_dim
    if model.layers[-1].out_dim != 1:
        raise DimensionMismatch(f"model has {model.layers[-1].out_dim} outputs, expected 1")
    _require_packed(inputs, dim)
    block = np.zeros((BLOCK_ROWS, dim), dtype=model.layers[0].weights.dtype)
    out = np.empty(len(inputs), dtype=block.dtype)
    for lo in range(0, len(inputs), BLOCK_ROWS):
        rows = _unpacked(inputs, slice(lo, lo + BLOCK_ROWS))
        block[: len(rows)] = rows
        block[len(rows) :] = 0
        scores, _, _ = _forward_full(model, block, None)
        out[lo : lo + len(rows)] = np.clip(scores[: len(rows), 0], LOSS_EPS, 1.0 - LOSS_EPS)
    if np.isnan(out).any():
        raise NaNScore(model)
    return out


def bce_loss(prediction: float, label: int, weight: float = 1.0) -> float:
    """Weighted binary cross-entropy with the prediction clamped away
    from 0 and 1."""
    p = min(max(float(prediction), LOSS_EPS), 1.0 - LOSS_EPS)
    y = float(label)
    return -weight * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 30
    seed: int = 0
    positive_weight: float | None = None  # per-example weight on label 1

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class TrainingHistory:
    """Per-epoch (loss, accuracy) measured on the training data."""

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)

    def save_csv(self, path) -> None:
        """An ``epoch,loss,accuracy`` header, then one line per epoch."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("epoch,loss,accuracy\n")
            for epoch, (loss, acc) in enumerate(zip(self.loss, self.accuracy), 1):
                fh.write(f"{epoch},{loss:.6f},{acc:.6f}\n")


def _bce_output_delta(p_raw: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(weighted bce with clamped input)/d(raw network output).

    Inside the clamp this is w(p - y)/(p(1 - p)), which the sigmoid
    derivative in the backward pass collapses to the familiar w(p - y).
    Where the output saturates beyond the clamp, the clamped loss is flat,
    so the exact derivative is zero; keeping that consistency is what lets
    finite differences validate the analytic gradients everywhere.
    """
    inside = (p_raw > LOSS_EPS) & (p_raw < 1.0 - LOSS_EPS)
    denominator = np.where(inside, p_raw * (1.0 - p_raw), 1.0)
    return np.where(inside, w * (p_raw - y) / denominator, 0.0)


def _backward(
    model: MlpModel,
    activations: list[np.ndarray],
    masks: list[np.ndarray | None],
    delta_out: np.ndarray,
    rows: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients per layer given ``delta_out``, d(loss)/d(final activation
    output): the final sigmoid's own derivative is applied here, not
    assumed to be folded into ``delta_out``.

    With ``rows``, the first layer's weight gradient covers only those
    input rows, in that order: another row whose inputs are all zero has
    the exact gradient 0, while the delta reaching the first layer is
    finite (0 * inf is NaN); one that is not raises Diverged.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)
    delta = delta_out
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        h_out = activations[k + 1]
        if masks[k] is not None:
            delta = delta * masks[k]
        if layer.activation == RELU:
            # h_out = relu(z) * mask with mask 0 or 1/keep, so h_out > 0
            # exactly where relu(z) > 0 and the unit was kept (NaN: neither).
            delta = delta * (h_out > 0)
        elif layer.activation == SIGMOID:
            act_out = h_out
            if masks[k] is not None:  # recover act(z) where the unit was kept
                safe = np.where(masks[k] == 0, 1, masks[k])
                act_out = np.where(masks[k] > 0, h_out / safe, 0)
            delta = delta * act_out * (1.0 - act_out)
        inputs = activations[k]
        if k == 0:
            if not np.isfinite(delta).all():
                raise Diverged("a first-layer delta is not finite")
            if rows is not None:
                inputs = inputs[:, rows]
        grads[k] = (inputs.T @ delta, delta.sum(axis=0))
        if k:
            delta = delta @ layer.weights.T
    return grads


def _adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    learning_rate: float,
    step: int,
    rows: np.ndarray | None = None,
) -> None:
    """One Adam update of ``param`` in place, ADAM_BLOCK elements at a time.

    ``grad``, ``m`` and ``v`` hold the parameter's ``rows``, or all of it
    without ``rows``. Each element sees the same operations in the same
    order as in one whole-array pass, so blocking changes no bit; it keeps
    each of the passes over a block in cache instead of streaming the whole
    array through memory once per pass.
    """
    correction1 = 1.0 - ADAM_BETA1**step
    correction2 = 1.0 - ADAM_BETA2**step
    block = max(ADAM_BLOCK // max(math.prod(grad.shape[1:]), 1), 1)
    for lo in range(0, len(grad), block):
        g, mk, vk = grad[lo : lo + block], m[lo : lo + block], v[lo : lo + block]
        mk *= ADAM_BETA1
        mk += (1 - ADAM_BETA1) * g
        vk *= ADAM_BETA2
        vk += (1 - ADAM_BETA2) * g * g
        update = learning_rate * (mk / correction1) / (np.sqrt(vk / correction2) + ADAM_EPSILON)
        if rows is None:
            param[lo : lo + block] -= update
        else:
            param[rows[lo : lo + block]] -= update


@np.errstate(over="ignore", invalid="ignore")
def train(
    spec: tuple[LayerSpec, ...],
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    sample_weights: np.ndarray | None = None,
    *,
    history: bool = False,
) -> tuple[MlpModel, TrainingHistory]:
    """Initialize a model of layer specification ``spec`` and train it;
    returns the trained model and, with ``history``, the per-epoch loss
    and accuracy on the training data (an empty history without).

    ``features`` are packed rows, as ``forward`` takes them; only a batch
    or a history slice is unpacked at a time. The history scores the
    training rows in unpadded slices of HISTORY_ROWS, starting at every
    multiple of it: a matrix product's bits can depend on its row count, so
    that slicing is part of what the history is.

    The run is bit-reproducible for a fixed (seed, data order); epochs=0
    returns the bare initialization with an empty history. A run that
    overflows float32 raises Diverged at the first step whose first-layer
    delta is not finite, before the step updates a weight, or at the end if
    a weight or bias is not finite.

    Only the first-layer rows that some training row reaches (a feature
    column that is ever nonzero) can move: every other row has the exact
    gradient 0 at every step, so its Adam moments stay 0 and its update is
    0. Its moments are therefore not kept, its gradient is not computed
    and its weights are not touched, which leaves every weight bit as the
    full update would. The forward pass still multiplies by the whole
    first layer, because a product over the reached columns alone sums in
    another order.
    """
    if spec[-1].out_dim != 1 or spec[-1].activation != SIGMOID:
        raise ValueError(
            "binary cross-entropy training needs a single sigmoid output"
        )
    x = np.asarray(features)
    y = np.asarray(labels, dtype=np.float32).reshape(-1)
    _require_packed(x, spec[0].in_dim)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch("features and labels disagree in length")
    if x.shape[0] == 0:
        raise EmptyDataset("training data is empty")
    if len(np.unique(y)) < 2:
        raise SingleClassDataset("training data needs both classes")
    w = (
        np.ones_like(y)
        if sample_weights is None
        else np.asarray(sample_weights, dtype=np.float32).reshape(-1)
    )
    if config.positive_weight is not None:
        w = np.where(y == 1.0, w * np.float32(config.positive_weight), w)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    model = initialize(spec, rng)
    record = TrainingHistory()
    # The layers' own arrays are the parameters, updated in place, so
    # ``model`` is always the current model.
    params = [a for l in model.layers for a in (l.weights, l.biases)]
    # The first-layer rows trained, in order; None when that is every row.
    reach = np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(x, axis=0), bitorder="little"))
    reach = None if len(reach) == spec[0].in_dim else reach
    shapes = [a.shape for a in params]
    if reach is not None:
        shapes[0] = (len(reach), spec[0].out_dim)
    m = [np.zeros(shape, dtype=np.float32) for shape in shapes]
    v = [np.zeros(shape, dtype=np.float32) for shape in shapes]
    step = 0
    n = x.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            xb = _unpacked(x, batch).astype(np.float32)
            yb, wb = y[batch], w[batch]
            out, acts, masks = _forward_full(model, xb, rng)
            delta = _bce_output_delta(out[:, 0], yb, wb)[:, None] / len(batch)
            grads = [
                g
                for pair in _backward(model, acts, masks, delta.astype(np.float32), reach)
                for g in pair
            ]
            step += 1
            for k, (p, g, mk, vk) in enumerate(zip(params, grads, m, v)):
                _adam_step(p, g, mk, vk, config.learning_rate, step, None if k else reach)
        if history:
            # Unpadded HISTORY_ROWS slices plus the clip, not the blocked
            # ``forward``; the last batch's arrays are freed first.
            del out, acts, masks, grads, delta, xb
            scores = np.empty(n, dtype=np.float32)
            for lo in range(0, n, HISTORY_ROWS):
                rows = _unpacked(x, slice(lo, lo + HISTORY_ROWS)).astype(np.float32)
                out = _forward_full(model, rows, None)[0]
                del rows  # before the next slice is unpacked
                scores[lo : lo + len(out)] = out[:, 0]
            scores = np.clip(scores, LOSS_EPS, 1.0 - LOSS_EPS)
            losses = -(
                w * (y * np.log(np.clip(scores, LOSS_EPS, None))
                     + (1 - y) * np.log(np.clip(1 - scores, LOSS_EPS, None)))
            )
            record.loss.append(float(losses.mean()))
            record.accuracy.append(float(((scores >= 0.5) == (y == 1.0)).mean()))
    for k, layer in enumerate(model.layers):
        _require_finite(k, (layer.weights, layer.biases), Diverged)
    return model, record


@dataclass(frozen=True)
class GradientCheckReport:
    max_relative_error: float
    worst_layer: int
    worst_parameter: str  # e.g. "W[3,1]" or "b[0]"
    tolerance: float


def gradient_check(
    model: MlpModel,
    inputs: np.ndarray,
    label: int,
    tolerance: float = 1e-4,
    weight: float = 1.0,
) -> GradientCheckReport:
    """Compare analytic gradients of bce(forward(x)) against central finite
    differences (step 1e-4) in float64, dropout disabled.

    Raises GradientMismatch naming the worst parameter when any relative
    error exceeds the tolerance. Checks are only meaningful away from relu
    kinks: a pre-activation exactly at zero has no two-sided derivative,
    so probe models should carry random biases.
    """
    m64 = model.astype(np.float64)
    x = np.asarray(inputs, dtype=np.float64).reshape(1, -1)
    y = float(label)

    out, acts, masks = _forward_full(m64, x, None)
    delta = _bce_output_delta(
        out[0:1, 0], np.array([y]), np.array([weight])
    )[:, None].astype(np.float64)
    analytic = _backward(m64, acts, masks, delta)

    def loss_with(layers) -> float:
        candidate = MlpModel(tuple(layers))
        out2, _, _ = _forward_full(candidate, x, None)
        return bce_loss(out2[0, 0], label, weight)

    step = 1e-4
    worst = (0.0, -1, "")
    for k, layer in enumerate(m64.layers):
        for kind, arr, grad in (
            ("W", layer.weights, analytic[k][0]),
            ("b", layer.biases, analytic[k][1]),
        ):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = arr[idx]
                arr[idx] = original + step
                up = loss_with(m64.layers)
                arr[idx] = original - step
                down = loss_with(m64.layers)
                arr[idx] = original
                numeric = (up - down) / (2 * step)
                a = float(grad[idx])
                rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
                if rel > worst[0]:
                    name = f"{kind}[{','.join(map(str, idx))}]"
                    worst = (rel, k, name)
    report = GradientCheckReport(worst[0], worst[1], worst[2], tolerance)
    if worst[0] > tolerance:
        raise GradientMismatch(
            f"gradient mismatch at layer {worst[1]} {worst[2]}: "
            f"relative error {worst[0]:.3e} > {tolerance:g}"
        )
    return report


# ---------------------------------------------------------------------------
# Weight files

MAGIC = b"NNPR"
FORMAT_VERSION = 1


def save_weights(model: MlpModel) -> bytes:
    """Serialize to the exact little-endian layout:

    magic "NNPR" | u32 version | u32 layer_count | per layer:
    u32 in_dim | u32 out_dim | u8 activation (0=relu 1=sigmoid 2=none) |
    f32 dropout | f32 weights row-major (input index major) | f32 biases.

    Every parameter must be finite as float32: a NaN or infinite one, as a
    diverged training run leaves, raises ValueError naming its layer.
    """
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(model.layers))]
    for k, layer in enumerate(model.layers):
        act = _ACT_CODES[layer.activation]
        chunks.append(struct.pack("<IIBf", layer.in_dim, layer.out_dim, act, layer.dropout))
        arrays = [np.ascontiguousarray(a, dtype="<f4") for a in (layer.weights, layer.biases)]
        _require_finite(k, arrays)
        chunks += [a.tobytes() for a in arrays]
    return b"".join(chunks)


def _require_finite(k: int, arrays, error: type[Exception] = ValueError) -> None:
    # min and max propagate NaN and expose +-inf without the temporary
    # array np.isfinite(w) would allocate; initial=0 admits empty layers.
    extremes = [f(a, initial=0) for a in arrays for f in (np.min, np.max)]
    if not np.isfinite(extremes).all():
        raise error(f"layer {k}: a weight or bias is NaN or infinite")


def load_weights(source: bytes | BinaryIO) -> MlpModel:
    """Inverse of save_weights; load(save(m)) reproduces m bit-for-bit.

    ``source`` is the file's bytes or a seekable binary file, read from its
    start; each array is read straight into its own buffer. Rejects a file
    without layers, a dropout outside [0, 1) and a weight or bias that is
    NaN or infinite.
    """
    fh = io.BytesIO(source) if isinstance(source, bytes) else source
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    if fh.read(4) != MAGIC:
        raise BadMagic("not a weight file (bad magic)")
    header = fh.read(8)
    if len(header) < 8:
        raise TruncatedFile("header truncated")
    version, layer_count = struct.unpack("<II", header)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported weight file version {version}")
    if layer_count == 0:
        raise ValueError("weight file has no layers")
    layers = []
    for k in range(layer_count):
        header = fh.read(13)
        if len(header) < 13:
            raise TruncatedFile("layer header truncated")
        in_dim, out_dim, act_code, dropout = struct.unpack("<IIBf", header)
        if act_code not in _ACT_NAMES:
            raise ValueError(f"unknown activation code {act_code}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"layer {k}: dropout {dropout} outside [0, 1)")
        # Checked before allocating, so a corrupt header cannot ask for
        # more memory than the file holds.
        if fh.tell() + 4 * (in_dim * out_dim + out_dim) > size:
            raise TruncatedFile("layer parameters truncated")
        w = np.empty((in_dim, out_dim), dtype="<f4")
        b = np.empty(out_dim, dtype="<f4")
        for a in (w, b):
            if fh.readinto(a) != a.nbytes:
                raise TruncatedFile("layer parameters truncated")
        _require_finite(k, (w, b))
        layers.append(DenseLayer(w, b, _ACT_NAMES[act_code], dropout))
    if fh.read(1):
        raise TruncatedFile("trailing bytes after final layer")
    return MlpModel(tuple(layers))  # raises DimChainBroken on a bad chain
