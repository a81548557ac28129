"""Desk-scale training experiments with manual analytic gradients.

No autodiff framework: the forward pass, backpropagation through the
smooth leaky-ReLU activation and both heads, and the spectral
regularizer gradients are all written out explicitly so they can be
checked coordinate by coordinate against finite differences.  Backward
passes run only for optimizer steps; the per-epoch evaluation (training
loss, generalization gap, test accuracy) is one forward pass over the
training table and one over the held-out table.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import diagnostics
from .matcore import NotFiniteError, RankDeficientError
from .network import (
    CustomActivation,
    GaussianHead,
    Identity,
    LayerSpec,
    NetworkSpec,
    SmoothLeakyRelu,
    SoftmaxHead,
)


class TrainerError(Exception):
    pass


class DivergenceError(TrainerError):
    pass


# ---------------------------------------------------------------------------
# forward / backward


def _forward_cache(net: NetworkSpec, X: np.ndarray):
    """Pre-activations and activations per layer for a batch (N, d0)."""
    z = np.asarray(X, dtype=float)
    if z.ndim == 1:
        z = z[None, :]
    pre, post = [], [z]
    for layer in net.layers:
        if isinstance(layer.activation, CustomActivation):
            raise TrainerError(f"cannot train through activation {layer.activation!r}")
        a = z @ layer.weight.T + layer.bias
        z = layer.activation.value(a)
        pre.append(a)
        post.append(z)
    return pre, post


def _head_output(head, z: np.ndarray) -> np.ndarray:
    """Gaussian head: exp(-c ||z||^2) per row.  Softmax head: one probability row per row."""
    if isinstance(head, GaussianHead):
        return np.exp(-head.c * np.sum(z * z, axis=1))
    if isinstance(head, SoftmaxHead):
        e = np.exp(z - np.max(z, axis=1, keepdims=True))
        return e / np.sum(e, axis=1, keepdims=True)
    raise TrainerError(f"head {head!r} has no forward evaluation")


# the head each loss is defined for
_LOSS_HEADS = {"squared": GaussianHead, "cross_entropy": SoftmaxHead}


def _check_head_loss(head, head_loss: str) -> None:
    if not isinstance(head, _LOSS_HEADS.get(head_loss, ())):
        raise TrainerError(f"head loss {head_loss!r} does not pair with head {head!r}")


def _mean_loss(head, head_loss: str, out: np.ndarray, Y) -> float:
    """Mean loss of head outputs against real targets or integer labels."""
    _check_head_loss(head, head_loss)
    if head_loss == "squared":
        loss = float(np.mean((out - np.asarray(Y, dtype=float).reshape(-1)) ** 2))
    else:
        labels = np.asarray(Y, dtype=int).reshape(-1)
        loss = float(-np.mean(np.log(out[np.arange(labels.shape[0]), labels])))
    if not math.isfinite(loss):
        raise DivergenceError("non-finite loss")
    return loss


def forward(net: NetworkSpec, x):
    """Network output for one input or a batch.

    Gaussian head: scalar exp(-c ||z_L||^2) per sample.
    Softmax head: probability vector per sample (sums to 1).
    """
    single = np.asarray(x).ndim == 1
    _, post = _forward_cache(net, x)
    out = _head_output(net.head, post[-1])
    return out[0] if single else out


def loss_and_grads(net: NetworkSpec, X, Y, head_loss: str = "squared"):
    """Mean loss over the batch and analytic gradients per parameter.

    head_loss "squared" pairs with the Gaussian head and real targets;
    "cross_entropy" pairs with the softmax head and integer labels.
    Returns (loss, [(dW_1, db_1), ..., (dW_L, db_L)]).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise TrainerError("batch must be nonempty")
    n = X.shape[0]
    pre, post = _forward_cache(net, X)
    z_last = post[-1]
    f = _head_output(net.head, z_last)
    loss = _mean_loss(net.head, head_loss, f, Y)
    if head_loss == "squared":
        y = np.asarray(Y, dtype=float).reshape(-1)
        # d loss / d z_L = (2/n) (f - y) * f * (-2c) z_L
        delta = ((2.0 / n) * (f - y) * f * (-2.0 * net.head.c))[:, None] * z_last
    else:
        delta = f.copy()
        delta[np.arange(n), np.asarray(Y, dtype=int).reshape(-1)] -= 1.0
        delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * net.depth
    for j in range(net.depth - 1, -1, -1):
        layer = net.layers[j]
        delta_a = delta * layer.activation.derivative(pre[j])
        gw = delta_a.T @ post[j]
        gb = np.sum(delta_a, axis=0)
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise DivergenceError(f"non-finite gradient in layer {j + 1}")
        grads[j] = (gw, gb)
        delta = delta_a @ layer.weight
    return loss, grads


# ---------------------------------------------------------------------------
# regularizers


def regularizer_synthetic(net: NetworkSpec, lam: float):
    """lam * (prod_j det(W_j^T W_j)^(-1/2) + 10 prod_j ||W_j||) with gradients.

    The determinant term's layer gradient is
    -det(W^T W)^(-1/2) W (W^T W)^(-1) scaled by the other layers' factors;
    the norm term uses the top singular pair subgradient u1 v1^T.
    """
    det_inv = []
    svds = []
    for j, layer in enumerate(net.layers):
        w = layer.weight
        if w.shape[0] < w.shape[1]:
            raise RankDeficientError(
                f"layer {j + 1} is wide; use the per-layer regularizer instead",
                sigma_min=0.0,
            )
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        tol = 1e-12 * max(w.shape) * (s[0] if s[0] > 0 else 1.0)
        if s[-1] <= tol:
            raise RankDeficientError(
                f"layer {j + 1} is numerically singular; "
                "use the per-layer regularizer instead",
                sigma_min=float(s[-1]),
            )
        svds.append((u, s, vt))
        det_inv.append(math.exp(-float(np.sum(np.log(s)))))
    ops = [float(svd[1][0]) for svd in svds]
    det_prod = math.prod(det_inv)
    op_prod = math.prod(ops)
    value = lam * (det_prod + 10.0 * op_prod)
    grads = []
    for j, (u, s, vt) in enumerate(svds):
        other_det = det_prod / det_inv[j]
        other_op = op_prod / ops[j]
        # d det(W^T W)^(-1/2) / dW = -det^(-1/2) W (W^T W)^(-1) = -det^(-1/2) U S^(-1) V^T
        g_det = -det_inv[j] * (u / s) @ vt
        g_op = np.outer(u[:, 0], vt[0, :])
        grads.append(lam * (other_det * g_det + 10.0 * other_op * g_op))
    return value, grads


def regularizer_perlayer(w, lam1: float, lam2: float):
    """lam1 ||W|| + lam2 / det(I + W^T W), value and gradient for one matrix."""
    w = np.asarray(w, dtype=float)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    log_det = float(np.sum(np.log1p(s ** 2)))
    det_inv = math.exp(-log_det)
    value = lam1 * float(s[0]) + lam2 * det_inv
    # d det(I + W^T W)^(-1) / dW = -det^(-1) * 2 W (I + W^T W)^(-1)
    g = lam1 * np.outer(u[:, 0], vt[0, :])
    g += -lam2 * det_inv * 2.0 * (u * (s / (1.0 + s ** 2))) @ vt
    return value, g


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Training table plus a disjoint held-out table (same generator, later draws)."""

    inputs: np.ndarray
    targets: np.ndarray
    held_inputs: np.ndarray
    held_targets: np.ndarray


def synthetic_target(x) -> np.ndarray:
    """t(x) = exp(-||2x - 1||^2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.exp(-np.sum((2.0 * x - 1.0) ** 2, axis=1))


def make_synthetic(n: int, seed: int, dim: int = 3) -> Dataset:
    """n standard-normal training inputs plus 10n held-out, targets t(x)."""
    rng = np.random.default_rng(seed)
    x_train = rng.standard_normal((n, dim))
    x_held = rng.standard_normal((10 * n, dim))
    return Dataset(
        inputs=x_train,
        targets=synthetic_target(x_train),
        held_inputs=x_held,
        held_targets=synthetic_target(x_held),
    )


def load_digits(path=None) -> Dataset:
    """Bundled 8x8 digits-style fixture: 1500 train / 300 test rows.

    Pixels are rescaled to [0, 1]; the held-out slots carry the test
    inputs and integer labels.
    """
    import importlib.resources as resources

    if path is None:
        source = resources.files("koopbound").joinpath("data/digits.csv")
        text = source.read_text()
    else:
        from pathlib import Path

        text = Path(path).read_text()
    rows = text.strip().splitlines()[1:]
    data = np.array([[float(v) for v in line.split(",")] for line in rows])
    labels = data[:, 0].astype(int)
    pixels = data[:, 1:] / 16.0
    return Dataset(
        inputs=pixels[:1500],
        targets=labels[:1500],
        held_inputs=pixels[1500:1800],
        held_targets=labels[1500:1800],
    )


def gen_error_estimate(net: NetworkSpec, data: Dataset, head_loss: str = "squared") -> float:
    """|mean held-out loss - mean training loss|, from one forward pass over each table."""
    train_loss = _mean_loss(net.head, head_loss, forward(net, data.inputs), data.targets)
    held_loss = _mean_loss(
        net.head, head_loss, forward(net, data.held_inputs), data.held_targets
    )
    return abs(held_loss - train_loss)


def _accuracy(probs: np.ndarray, labels) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels, dtype=int)))


def classification_accuracy(net: NetworkSpec, X, labels) -> float:
    return _accuracy(forward(net, np.atleast_2d(X)), labels)


# ---------------------------------------------------------------------------
# initialization and network construction


def init_weight(kind: str, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """kaiming, truncated_normal (both std sqrt(2/fan_in)), or orthogonal."""
    if kind == "kaiming":
        return rng.standard_normal((rows, cols)) * math.sqrt(2.0 / cols)
    if kind == "truncated_normal":
        z = rng.standard_normal((rows, cols))
        while True:
            mask = np.abs(z) > 2.0
            if not np.any(mask):
                break
            z[mask] = rng.standard_normal(int(np.sum(mask)))
        return z * math.sqrt(2.0 / cols)
    if kind == "orthogonal":
        transpose = rows < cols
        a = rng.standard_normal((cols, rows) if transpose else (rows, cols))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))
        return q.T if transpose else q
    raise TrainerError(f"unknown init {kind!r}")


def build_network(
    widths: list[int],
    head,
    seed: int,
    init: str | list[str] = "kaiming",
    activation=SmoothLeakyRelu(),
) -> NetworkSpec:
    """Dense net over the width chain; activations between layers, identity last.

    Smoothness exponents follow the (d + 0.1)/2 default, forced
    non-decreasing along the chain so narrowing layers stay valid.
    """
    rng = np.random.default_rng(seed)
    L = len(widths) - 1
    inits = [init] * L if isinstance(init, str) else list(init)
    if len(inits) != L:
        raise TrainerError("need one init kind per layer")
    s_prev = (widths[0] + 0.1) / 2.0
    s_in = s_prev
    layers = []
    for j in range(L):
        rows, cols = widths[j + 1], widths[j]
        s_here = max((rows + 0.1) / 2.0, s_prev)
        layers.append(
            LayerSpec(
                weight=init_weight(inits[j], rows, cols, rng),
                bias=np.zeros(rows),
                activation=activation if j < L - 1 else Identity(),
                s_out=s_here,
            )
        )
        s_prev = s_here
    return NetworkSpec(input_dim=widths[0], layers=layers, head=head, s_in=s_in)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 200
    learning_rate: float = 0.05
    lr_decay: float = 1.0  # per-epoch multiplicative factor
    lr_decay_start: int = 1  # first epoch the decay applies to
    optimizer: str = "sgd"  # or "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    regularizer: str = "none"  # none | synthetic | perlayer
    lam: float = 0.01
    lam1: float = 0.01
    lam2: float = 0.01
    reg_layers: tuple[int, ...] = (1, 2)  # 1-based, perlayer only
    batch_size: int | None = None  # None = full batch
    head_loss: str = "squared"

    def __post_init__(self):
        try:
            self.reg_layers = tuple(self.reg_layers)
        except TypeError:
            raise TrainerError("reg_layers must be a list of layer numbers") from None
        ints = [self.seed, self.epochs, self.lr_decay_start, *self.reg_layers]
        if self.batch_size is not None:
            ints.append(self.batch_size)
        reals = [self.learning_rate, self.lr_decay, self.beta1, self.beta2, self.eps,
                 self.lam, self.lam1, self.lam2]
        names = [self.optimizer, self.regularizer, self.head_loss]
        if not (all(isinstance(v, numbers.Integral) for v in ints)
                and all(isinstance(v, numbers.Real) for v in reals)
                and all(isinstance(v, str) for v in names)):
            raise TrainerError("config field of the wrong type: optimizer, regularizer and "
                               "head_loss take strings, seed, epochs, lr_decay_start, "
                               "reg_layers and batch_size integers, the rest numbers")
        for ok, message in (
            (self.seed >= 0, "seed must be >= 0"),
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.learning_rate >= 0, "learning rate must be >= 0"),
            (0.0 < self.lr_decay <= 1.0, "lr_decay must be in (0, 1]"),
            (self.lr_decay_start >= 1, "lr_decay_start must be >= 1"),
            (self.optimizer in ("sgd", "adam"), f"unknown optimizer {self.optimizer!r}"),
            (self.regularizer in ("none", "synthetic", "perlayer"),
             f"unknown regularizer {self.regularizer!r}"),
            (self.head_loss in _LOSS_HEADS, f"unknown head loss {self.head_loss!r}"),
            (self.batch_size is None or self.batch_size >= 1,
             "batch_size must be null (full batch) or >= 1"),
            (all(idx >= 1 for idx in self.reg_layers), "reg_layers are 1-based"),
        ):
            if not ok:
                raise TrainerError(message)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    gen_error: float
    matrix_factor: float
    bound_totals: dict[str, float]
    test_accuracy: float | None = None


@dataclass
class TrainRun:
    config: TrainConfig
    metrics: list[EpochMetrics]
    net: NetworkSpec
    spectrum: diagnostics.SpectrumLog
    diverged: bool = False

    def metrics_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        variants = sorted(
            {k for m in self.metrics for k in m.bound_totals}
        )
        writer.writerow(
            ["epoch", "train_loss", "gen_error", "matrix_factor", "test_accuracy"]
            + variants
        )
        for m in self.metrics:
            writer.writerow(
                [
                    m.epoch,
                    repr(m.train_loss),
                    repr(m.gen_error),
                    repr(m.matrix_factor),
                    "" if m.test_accuracy is None else repr(m.test_accuracy),
                ]
                + [
                    repr(m.bound_totals[v]) if v in m.bound_totals else ""
                    for v in variants
                ]
            )
        return buf.getvalue()


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let glibc keep freed memory in the heap instead of returning it to the OS.

    Each epoch's evaluation allocates and frees temporaries of 0.5-7 MB
    (10 000 held-out rows, or 1 500 rows through 128-wide layers).  Under
    glibc's default thresholds they are mmapped, or trimmed off the heap
    top, and page-faulted back in every epoch: about 550 minor faults per
    synthetic-task epoch and 9 000 per digits epoch.  Serving them from a
    heap that may keep 32 MB free removes those faults.  This sets the
    thresholds for the whole process; without glibc it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _apply_regularizer(net: NetworkSpec, config: TrainConfig, grads) -> None:
    """Add the regularizer's weight gradients to the loss gradients in place."""
    if config.regularizer == "synthetic":
        _, reg_grads = regularizer_synthetic(net, config.lam)
        for (gw, _), rg in zip(grads, reg_grads):
            gw += rg
    elif config.regularizer == "perlayer":
        for idx in config.reg_layers:
            _, g = regularizer_perlayer(net.layers[idx - 1].weight, config.lam1, config.lam2)
            grads[idx - 1][0][:] += g


def train(
    config: TrainConfig,
    dataset: Dataset,
    net0: NetworkSpec,
    classification: bool = False,
) -> TrainRun:
    """Run the optimizer and log metrics, bound totals, and spectra per epoch.

    Fully deterministic given config.seed: one generator drives batch
    shuffling, and the optimizer update order is fixed.  Each epoch is
    evaluated from one forward pass over the training inputs and one over
    the held-out inputs.  A non-finite loss or gradient, or weights whose
    bound report overflows, abort with a partial run flagged diverged.
    Sets the process's malloc thresholds (see _keep_freed_heap).
    """
    _check_head_loss(net0.head, config.head_loss)
    if config.regularizer == "perlayer" and max(config.reg_layers, default=0) > net0.depth:
        raise TrainerError(f"reg_layers {config.reg_layers} exceed the depth {net0.depth}")
    _keep_freed_heap()
    net = copy.deepcopy(net0)
    rng = np.random.default_rng(config.seed)
    n = dataset.inputs.shape[0]
    constants = bounds_mod.default_constants(net, n)
    spectrum = diagnostics.SpectrumLog()
    metrics: list[EpochMetrics] = []
    diverged = False

    adam_m = [
        (np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in net.layers
    ]
    adam_v = [
        (np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in net.layers
    ]
    adam_t = 0

    lr = config.learning_rate

    def step(batch_x, batch_y):
        nonlocal adam_t
        _, grads = loss_and_grads(net, batch_x, batch_y, config.head_loss)
        _apply_regularizer(net, config, grads)
        if config.optimizer == "sgd":
            for layer, (gw, gb) in zip(net.layers, grads):
                layer.weight -= lr * gw
                layer.bias -= lr * gb
        else:
            adam_t += 1
            bc1 = 1.0 - config.beta1 ** adam_t
            bc2 = 1.0 - config.beta2 ** adam_t
            for j, (layer, (gw, gb)) in enumerate(zip(net.layers, grads)):
                for param, grad, m, v in (
                    (layer.weight, gw, adam_m[j][0], adam_v[j][0]),
                    (layer.bias, gb, adam_m[j][1], adam_v[j][1]),
                ):
                    m *= config.beta1
                    m += (1.0 - config.beta1) * grad
                    v *= config.beta2
                    v += (1.0 - config.beta2) * grad * grad
                    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.eps)

    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate * config.lr_decay ** max(
            0, epoch - config.lr_decay_start
        )
        try:
            if config.batch_size is None:
                step(dataset.inputs, dataset.targets)
            else:
                order = rng.permutation(n)
                for start in range(0, n, config.batch_size):
                    idx = order[start : start + config.batch_size]
                    step(dataset.inputs[idx], dataset.targets[idx])
            train_out = forward(net, dataset.inputs)
            held_out = forward(net, dataset.held_inputs)
            train_loss = _mean_loss(net.head, config.head_loss, train_out, dataset.targets)
            held_loss = _mean_loss(net.head, config.head_loss, held_out, dataset.held_targets)
            report = bounds_mod.full_report(net, constants)
        except (DivergenceError, OverflowError, NotFiniteError):
            diverged = True
            break
        test_acc = _accuracy(held_out, dataset.held_targets) if classification else None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=train_loss,
                gen_error=abs(held_loss - train_loss),
                matrix_factor=report.matrix_factor,
                bound_totals=dict(report.totals),
                test_accuracy=test_acc,
            )
        )
        spectrum.append(
            diagnostics.snapshot(
                net, epoch, test_metric=test_acc, spectra=report.spectra
            )
        )

    return TrainRun(
        config=config, metrics=metrics, net=net, spectrum=spectrum,
        diverged=diverged,
    )
