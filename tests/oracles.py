"""Independent reimplementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: SVD is
replaced by characteristic-polynomial eigenvalues or power iteration,
determinants by cofactor expansion, integrals by trapezoid sums or a
closed form, and gradients by central finite differences.

The Rademacher oracles live here too: `rademacher_exact` enumerates all
2^n sign vectors of a finite class, `rademacher_lower_fixed` is the
Monte-Carlo estimate for the same class (it keeps the library's
per-draw seed rule, so it draws the sign vectors that
`empirical_rademacher_lower` draws for the same seed), and `rkhs_ball_rademacher` is the closed form for the radius-ball of
the Sobolev RKHS next to its B / sqrt(n) bound.

`smooth_leaky_relu_reference` is the activation and its derivative as
plain allocating numpy expressions, which the in-place kernel must match
bit for bit.

`gen_error_estimate` and `classification_accuracy` evaluate a network
after training, from the trainer's forward pass and loss: the reference
for the per-epoch evaluation `train` runs inline.
"""

import math

import numpy as np

from koopbound.kernels import kernel_trace_bound, sobolev_kernel
from koopbound.rademacher import BIAS_RADIUS, _draw_seed
from koopbound.trainer import _accuracy, _mean_loss, forward


def gaussian_head_norm_hyperu(d: int, s: float, c: float) -> float:
    """||g|| of g(x) = exp(-c ||x||^2) in the order-s Sobolev space on R^d, in closed form.

    Substituting t = r^2 in the radial integral gives
    ||g||^2 = S_{d-1} (pi/c)^d * 1/2 Gamma(d/2) U(d/2, d/2 + s + 1, 1/(2c)),
    U Tricomi's confluent hypergeometric function, and S_{d-1} Gamma(d/2) / 2
    is pi^(d/2).  scipy's `hyperu` is good to about 1e-10 relative for d < 80
    and returns NaN at d = 256.
    """
    from scipy.special import hyperu

    u = float(hyperu(d / 2, d / 2 + s + 1, 1 / (2 * c)))
    return math.exp(0.5 * (0.5 * d * math.log(math.pi) + d * math.log(math.pi / c) + math.log(u)))


def cofactor_det(m) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * cofactor_det(minor)
    return total


def charpoly_coefficients(m) -> list[float]:
    """Faddeev-LeVerrier recursion for det(tI - M) coefficients.

    Returns [1, c_{n-1}, ..., c_0] with the convention
    det(tI - M) = t^n + c_{n-1} t^{n-1} + ... + c_0.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n)) if k > 1 else m.copy()
        coeffs.append(-np.trace(mk) / k)
    return coeffs


def eigenvalues_via_charpoly(m) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial."""
    return np.roots(charpoly_coefficients(m))


def singular_values_via_charpoly(m) -> np.ndarray:
    """Singular values from eigenvalues of the Gram matrix, descending."""
    m = np.asarray(m, dtype=float)
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    eigs = np.real(eigenvalues_via_charpoly(gram))
    eigs = np.clip(eigs, 0.0, None)
    return np.sort(np.sqrt(eigs))[::-1]


def operator_norm_power_iteration(m, iters: int = 5000, seed: int = 0) -> float:
    """Largest singular value by power iteration on M^T M."""
    m = np.asarray(m, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = m.T @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(m @ v))


def trapezoid_integral(fn, lo: float, hi: float, num: int = 1_000_000) -> float:
    xs = np.linspace(lo, hi, num)
    return float(np.trapezoid(fn(xs), xs))


def central_difference(fn, x0, step: float = 1e-6) -> np.ndarray:
    """Dense central-difference gradient of a scalar function of an array."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn(x0)
        flat[i] = orig - step
        down = fn(x0)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * step)
    return grad


def forward_reference(weights, biases, alpha, mu, x, c_gauss=1.0):
    """Straight-line scalar forward pass for a Gaussian-head network."""
    z = np.asarray(x, dtype=float)
    n_layers = len(weights)
    for j, (w, b) in enumerate(zip(weights, biases)):
        z = np.asarray(w) @ z + np.asarray(b)
        if j < n_layers - 1:
            out = np.empty_like(z)
            for i, v in enumerate(z):
                e = math.erf(mu * (1.0 - alpha) * v)
                out[i] = ((1.0 + alpha) * v + (1.0 - alpha) * v * e) / 2.0
            z = out
    return math.exp(-c_gauss * float(np.dot(z, z)))


def smooth_leaky_relu_reference(x, alpha: float, mu: float):
    """(sigma(x), sigma'(x)) of the smooth leaky ReLU, one allocating numpy
    expression per quantity, in the operation order the library keeps."""
    from scipy.special import erf

    x = np.asarray(x, dtype=float)
    beta = mu * (1.0 - alpha)
    e = erf(beta * x)
    value = 0.5 * ((1.0 + alpha) * x + (1.0 - alpha) * x * e)
    u = beta * x
    return value, 0.5 * (
        (1.0 + alpha)
        + (1.0 - alpha) * (e + x * beta * (2.0 / math.sqrt(math.pi)) * np.exp(-u * u))
    )


def gram_schmidt_projector(columns) -> np.ndarray:
    """Orthogonal projector onto the span of the given columns."""
    cols = np.asarray(columns, dtype=float)
    basis = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for b in basis:
            v -= np.dot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            basis.append(v / norm)
    if not basis:
        return np.zeros((cols.shape[0], cols.shape[0]))
    q = np.stack(basis, axis=1)
    return q @ q.T


def sample_networks_lapack(spec, rng, count, cap: int = 100_000):
    """The MC sampler's draws with the LAPACK filter: norm(ord=2), then det.

    Same RNG stream as the library (Gaussian batches of max(4 need, 64),
    then a uniform bias per candidate and layer); sigma_1 comes from
    np.linalg.norm and the volume from |det W|.
    """
    params = []
    for cols, rows in zip(spec.widths, spec.widths[1:]):
        accepted, attempts, need = [], 0, count
        while need > 0:
            batch = max(4 * need, 64)
            attempts += batch
            if attempts > cap:
                raise RuntimeError("rejection cap reached")
            ws = rng.standard_normal((batch, rows, cols))
            sigma1 = np.linalg.norm(ws, ord=2, axis=(1, 2))
            ws *= np.minimum(1.0, spec.C / sigma1)[:, None, None]
            good = ws[np.abs(np.linalg.det(ws)) >= spec.D]
            accepted.append(good[:need])
            need -= min(need, good.shape[0])
        g = rng.standard_normal((count, rows))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = BIAS_RADIUS * rng.random(count) ** (1.0 / rows)
        params.append((np.concatenate(accepted, axis=0), g * r[:, None]))
    return params


def rademacher_lower_fixed(values, draws: int, seed: int = 0) -> float:
    """Monte-Carlo estimate for an explicit finite class given as (K, n) values."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n = v.shape[1]
    total = 0.0
    for draw in range(draws):
        rng = _draw_seed(seed, draw)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        total += float(np.max(v @ signs) / n)
    return total / draws


def rademacher_exact(values) -> float:
    """Exact complexity of a finite class by enumerating all 2^n sign vectors."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n = v.shape[1]
    if n > 20:
        raise ValueError(f"2^{n} sign vectors is too many to enumerate")
    total = 0.0
    for mask in range(2 ** n):
        signs = np.array(
            [1.0 if mask & (1 << i) else -1.0 for i in range(n)]
        )
        total += float(np.max(v @ signs) / n)
    return total / 2 ** n


def rkhs_ball_rademacher(
    points, radius: float, d: int, s: float
) -> tuple[float, float]:
    """Complexity of the radius-ball of the Sobolev RKHS at given points.

    exact: (radius/n) * (sum_i k(x_i, x_i))^(1/2), the value after the
    Jensen step of the kernel-class argument.
    bound: radius * B / sqrt(n) with B the kernel diagonal bound.
    exact <= bound always.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("points must be nonempty")
    trace = sum(sobolev_kernel(xi, xi, d, s) for xi in x)
    exact = radius / n * math.sqrt(trace)
    bound = radius * kernel_trace_bound(d, s) / math.sqrt(n)
    return exact, bound


def gen_error_estimate(net, data) -> float:
    """|mean held-out loss - mean training loss| under the head's loss, from one
    forward pass over each table."""
    train_loss = _mean_loss(net.head, forward(net, data.inputs), data.targets)
    held_loss = _mean_loss(net.head, forward(net, data.held_inputs), data.held_targets)
    return abs(held_loss - train_loss)


def classification_accuracy(net, X, labels) -> float:
    return _accuracy(forward(net, np.atleast_2d(X)), labels)
