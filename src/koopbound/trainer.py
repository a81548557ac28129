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
from .matcore import NotFiniteError, RankDeficientError, log1p_square
from .network import (
    CustomActivation,
    GaussianHead,
    Identity,
    LayerSpec,
    NetworkSpec,
    SmoothLeakyRelu,
    SoftmaxHead,
    _gaussian_head,
    default_smoothness,
)


class TrainerError(Exception):
    pass


class DivergenceError(TrainerError):
    pass


# ---------------------------------------------------------------------------
# forward / backward


def _affine(z: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """z W^T + b for a batch of rows; a custom activation (sups only, no formula) is refused."""
    if isinstance(layer.activation, CustomActivation):
        raise TrainerError(f"cannot train through activation {layer.activation!r}")
    a = z @ layer.weight.T
    a += layer.bias
    return a


def _head_output(head, z: np.ndarray) -> np.ndarray:
    """Gaussian head: exp(-c ||z||^2) per row.  Softmax head: one probability row per row."""
    if isinstance(head, GaussianHead):
        return _gaussian_head(head.c, z)
    if isinstance(head, SoftmaxHead):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    raise TrainerError(f"head {head!r} has no forward evaluation")


def _mean_loss(head, out: np.ndarray, Y) -> float:
    """Mean loss of head outputs: squared error against real targets for a
    Gaussian head, cross-entropy against integer labels for a softmax head."""
    if isinstance(head, GaussianHead):
        loss = float(((out - np.asarray(Y, dtype=float).reshape(-1)) ** 2).mean())
    else:
        labels = np.asarray(Y, dtype=int).reshape(-1)
        loss = float(-np.log(out[np.arange(labels.shape[0]), labels]).mean())
    if not math.isfinite(loss):
        raise DivergenceError("non-finite loss")
    return loss


def forward(net: NetworkSpec, x):
    """Network output for one input or a batch, from a value-only pass
    (no sigma', no activations kept for a backward pass).

    Gaussian head: scalar exp(-c ||z_L||^2) per sample.
    Softmax head: probability vector per sample (sums to 1).
    """
    z = np.asarray(x, dtype=float)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    for layer in net.layers:
        a = _affine(z, layer)  # before the lookup, so a custom activation is refused
        z = layer.activation.value(a)
    out = _head_output(net.head, z)
    return out[0] if single else out


def loss_and_grads(net: NetworkSpec, X, Y):
    """Mean loss over the batch and analytic gradients per parameter.

    The loss follows from net.head: squared error against real targets
    for the Gaussian head, cross-entropy against integer labels for the
    softmax head.
    Returns (loss, [(dW_1, db_1), ..., (dW_L, db_L)]); no delta reaches the input.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise TrainerError("batch must be nonempty")
    n = X.shape[0]
    # each layer's input, and sigma' at its pre-activations (None for an identity layer)
    post, derivs = [X], []
    for layer in net.layers:
        a = _affine(post[-1], layer)  # before the lookup, as in `forward`
        z, deriv = layer.activation.value_and_derivative(a)
        post.append(z)
        derivs.append(deriv)
    z_last = post[-1]
    f = _head_output(net.head, z_last)
    loss = _mean_loss(net.head, f, Y)
    if isinstance(net.head, GaussianHead):
        y = np.asarray(Y, dtype=float).reshape(-1)
        # d loss / d z_L = (2/n) (f - y) * f * (-2c) z_L
        delta = ((2.0 / n) * (f - y) * f * (-2.0 * net.head.c))[:, None] * z_last
    else:
        delta = f.copy()
        delta[np.arange(n), np.asarray(Y, dtype=int).reshape(-1)] -= 1.0
        delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * net.depth
    for j in range(net.depth - 1, -1, -1):
        delta_a = delta if derivs[j] is None else delta * derivs[j]
        gw = delta_a.T @ post[j]
        gb = delta_a.sum(axis=0)
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise DivergenceError(f"non-finite gradient in layer {j + 1}")
        grads[j] = (gw, gb)
        if j:  # nothing reads the input's delta
            delta = delta_a @ net.layers[j].weight
    return loss, grads


# ---------------------------------------------------------------------------
# regularizers


def regularizer_synthetic(net: NetworkSpec):
    """REG_LAMBDA * (prod_j det(W_j^T W_j)^(-1/2) + 10 prod_j ||W_j||) with gradients.

    The determinant term's layer gradient is
    -det(W^T W)^(-1/2) W (W^T W)^(-1) scaled by the other layers' factors;
    the norm term uses the top singular pair subgradient u1 v1^T.
    """
    det_inv, ops, svds = [], [], []
    for j, layer in enumerate(net.layers):
        w = layer.weight
        if w.shape[0] < w.shape[1]:
            raise RankDeficientError(
                f"layer {j + 1} is wide; use the per-layer regularizer instead",
                sigma_min=0.0,
            )
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        top, bottom = float(s[0]), float(s[-1])
        ops.append(top)
        if bottom <= 1e-12 * max(w.shape) * (top if top > 0 else 1.0):
            raise RankDeficientError(
                f"layer {j + 1} is numerically singular; "
                "use the per-layer regularizer instead",
                sigma_min=bottom,
            )
        svds.append((u, s, vt))
        det_inv.append(math.exp(-float(np.log(s).sum())))
    det_prod = math.prod(det_inv)
    if det_prod == 0.0:  # the other layers' factors below divide by it
        raise DivergenceError("determinant term of the synthetic regularizer underflows")
    op_prod = math.prod(ops)
    value = REG_LAMBDA * (det_prod + 10.0 * op_prod)
    grads = []
    for j, (u, s, vt) in enumerate(svds):
        other_det = det_prod / det_inv[j]
        other_op = op_prod / ops[j]
        # d det(W^T W)^(-1/2) / dW = -det^(-1/2) W (W^T W)^(-1) = -det^(-1/2) U S^(-1) V^T
        g_det = -det_inv[j] * (u / s) @ vt
        g_op = u[:, :1] * vt[:1]  # the outer product u1 v1^T
        grads.append(REG_LAMBDA * (other_det * g_det + 10.0 * other_op * g_op))
    return value, grads


def regularizer_perlayer(w):
    """REG_LAMBDA (||W|| + 1 / det(I + W^T W)), value and gradient for one matrix."""
    w = np.asarray(w, dtype=float)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    log_det = float(log1p_square(s).sum())
    det_inv = math.exp(-log_det)
    value = REG_LAMBDA * float(s[0]) + REG_LAMBDA * det_inv
    # d det(I + W^T W)^(-1) / dW = -det^(-1) * 2 W (I + W^T W)^(-1)
    g = REG_LAMBDA * (u[:, :1] * vt[:1])
    g += -REG_LAMBDA * det_inv * 2.0 * (u * (s / (1.0 + s ** 2))) @ vt
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


def make_synthetic(n: int, seed: int) -> Dataset:
    """n standard-normal 3-d training inputs plus 10n held-out, targets t(x)."""
    rng = np.random.default_rng(seed)
    x_train = rng.standard_normal((n, 3))
    x_held = rng.standard_normal((10 * n, 3))
    return Dataset(
        inputs=x_train,
        targets=synthetic_target(x_train),
        held_inputs=x_held,
        held_targets=synthetic_target(x_held),
    )


def load_digits() -> Dataset:
    """Bundled 8x8 digits-style fixture: 1500 train / 300 test rows.

    Pixels are rescaled to [0, 1]; the held-out slots carry the test
    inputs and integer labels.
    """
    import importlib.resources as resources

    text = resources.files("koopbound").joinpath("data/digits.csv").read_text()
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


def _accuracy(probs: np.ndarray, labels) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels, dtype=int)))


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
    s_prev = default_smoothness(widths[0])
    s_in = s_prev
    layers = []
    for j in range(L):
        rows, cols = widths[j + 1], widths[j]
        s_here = max(default_smoothness(rows), s_prev)
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


# Adam's settings, the weight of every regularizer term, and the 1-based
# layers the per-layer regularizer acts on
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
REG_LAMBDA = 0.01
REG_LAYERS = (1, 2)


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 200
    learning_rate: float = 0.05
    lr_decay: float = 1.0  # per-epoch multiplicative factor
    lr_decay_start: int = 1  # first epoch the decay applies to
    optimizer: str = "sgd"  # or "adam"
    regularizer: str = "none"  # none | synthetic | perlayer
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        ints = [self.seed, self.epochs, self.lr_decay_start]
        if self.batch_size is not None:
            ints.append(self.batch_size)
        reals = [self.learning_rate, self.lr_decay]
        names = [self.optimizer, self.regularizer]
        # bool is an Integral, so a JSON true would otherwise pass as 1
        if not (all(isinstance(v, numbers.Integral) for v in ints)
                and all(isinstance(v, numbers.Real) for v in reals)
                and not any(isinstance(v, bool) for v in ints + reals)
                and all(isinstance(v, str) for v in names)):
            raise TrainerError("config field of the wrong type: optimizer and regularizer "
                               "take strings, seed, epochs, lr_decay_start and batch_size "
                               "integers, the rest numbers")
        for ok, message in (
            (self.seed >= 0, "seed must be >= 0"),
            (self.epochs >= 1, "epochs must be >= 1"),
            (0 <= self.learning_rate < math.inf, "learning rate must be finite and >= 0"),
            (0.0 < self.lr_decay <= 1.0, "lr_decay must be in (0, 1]"),
            (self.lr_decay_start >= 1, "lr_decay_start must be >= 1"),
            (self.optimizer in ("sgd", "adam"), f"unknown optimizer {self.optimizer!r}"),
            (self.regularizer in ("none", "synthetic", "perlayer"),
             f"unknown regularizer {self.regularizer!r}"),
            (self.batch_size is None or self.batch_size >= 1,
             "batch_size must be null (full batch) or >= 1"),
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
    top, and page-faulted back in every epoch.  Serving them from a heap
    that may keep 32 MB free removes those faults: minor faults per epoch
    (`resource.getrusage`, medians of 20 alternating fresh-process pairs
    on a 2-vCPU Linux host, after a 2-epoch warm-up) go from 252 to 0.74
    on the synthetic task (400 epochs) and from 1 842 to 7.9 on
    unregularized digits (10 epochs), peak RSS within 0.1 MB; the epoch
    times moved within that host's noise (faster with the setting in 13
    and 12 of 20 pairs).  Evaluating in row blocks instead avoids the
    faults only through glibc's dynamic mmap threshold.  This sets the
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
        _, reg_grads = regularizer_synthetic(net)
        for (gw, _), rg in zip(grads, reg_grads):
            gw += rg
    elif config.regularizer == "perlayer":
        for idx in REG_LAYERS:
            _, g = regularizer_perlayer(net.layers[idx - 1].weight)
            grads[idx - 1][0][:] += g


def check_setup(config: TrainConfig, net: NetworkSpec) -> None:
    """The TrainerError that `train` would raise before epoch 1, if any."""
    if not isinstance(net.head, (GaussianHead, SoftmaxHead)):
        raise TrainerError(f"head {net.head!r} has no training loss")
    if config.regularizer == "perlayer" and max(REG_LAYERS) > net.depth:
        raise TrainerError(f"per-layer regularizer needs layers {REG_LAYERS}; depth {net.depth}")
    if config.regularizer == "synthetic":
        for j, layer in enumerate(net.layers, start=1):
            if layer.out_dim < layer.in_dim:
                raise TrainerError(f"layer {j} is wide; use the per-layer regularizer instead")


def train(
    config: TrainConfig,
    dataset: Dataset,
    net0: NetworkSpec,
    classification: bool = False,
) -> TrainRun:
    """Run the optimizer and log metrics, bound totals, and spectra per epoch.

    The loss follows from the net's head, as in `loss_and_grads`.  Fully
    deterministic given config.seed: one generator drives batch
    shuffling, and the optimizer update order is fixed.  Each epoch is
    evaluated from one value-only `forward` pass over the training inputs
    and one over the held-out inputs.  A non-finite loss or gradient, a layer that goes
    singular or a determinant term that underflows under the synthetic
    regularizer, or weights whose bound report overflows, abort with a
    partial run flagged diverged.  The synthetic regularizer rejects a
    wide layer before epoch 1.
    Sets the process's malloc thresholds (see _keep_freed_heap).
    """
    check_setup(config, net0)
    _keep_freed_heap()
    net = copy.deepcopy(net0)
    rng = np.random.default_rng(config.seed)
    n = dataset.inputs.shape[0]
    constants = bounds_mod.default_constants(net, n)
    spectrum = diagnostics.SpectrumLog()
    metrics: list[EpochMetrics] = []
    diverged = False

    # [W_1, b_1, ..., W_L, b_L], updated in place in this order, and Adam's (m, v) per parameter
    params = [p for layer in net.layers for p in (layer.weight, layer.bias)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    adam_t = 0

    lr = config.learning_rate

    def step(batch_x, batch_y):
        nonlocal adam_t
        _, grads = loss_and_grads(net, batch_x, batch_y)
        _apply_regularizer(net, config, grads)
        flat_grads = [g for pair in grads for g in pair]
        if config.optimizer == "sgd":
            for param, grad in zip(params, flat_grads):
                param -= lr * grad
            return
        adam_t += 1
        bc1 = 1.0 - ADAM_BETA1 ** adam_t
        bc2 = 1.0 - ADAM_BETA2 ** adam_t
        for param, grad, (m, v) in zip(params, flat_grads, moments):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    # overflow and NaN are caught below, each as a divergence, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
                train_loss = _mean_loss(net.head, train_out, dataset.targets)
                held_loss = _mean_loss(net.head, held_out, dataset.held_targets)
                report = bounds_mod.full_report(net, constants)
                test_acc = _accuracy(held_out, dataset.held_targets) if classification else None
                snap = diagnostics.snapshot(report, epoch, test_metric=test_acc)
            except (DivergenceError, OverflowError, NotFiniteError, RankDeficientError):
                diverged = True
                break
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
            spectrum.append(snap)

    return TrainRun(
        config=config, metrics=metrics, net=net, spectrum=spectrum,
        diverged=diverged,
    )
