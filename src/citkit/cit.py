"""Base conditional independence tests.

Three tests behind one interface: the Fisher Z partial-correlation test, a
kernel conditional independence test calibrated on exact permutation cumulants
(KCIT family), and a random-Fourier-feature approximation of it (RCIT family).

Conventions shared by the kernel tests:

* every variable block is standardized column-wise (zero mean, unit variance),
  which makes the tests exactly invariant to per-column rescaling;
* Gaussian kernel k(a, b) = exp(-||a-b||^2 / (2 sigma^2)) with sigma
  proportional to the median pairwise distance of the block (the scale
  factors are fixed per test; see the constants below);
* the X-side kernel acts on the concatenation (x, z), following the original
  kernel-CI construction — without the augmentation the null is miscalibrated;
* both tests are calibrated by :mod:`citkit.permnull`: by default on the
  analytic null of the trace statistic (:func:`~citkit.permnull.analytic_null_p`,
  a normal-gamma convolution matched to the exact first four cumulants of the
  statistic under random permutation, with a flagged two-moment gamma
  fallback), or with ``permutations > 0`` on a sampled permutation null for
  validation (:func:`~citkit.permnull.sampled_null_p`).
"""

import ctypes
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cython_lapack
from scipy.spatial._distance_wrap import to_squareform_from_vector_wrap
from scipy.spatial.distance import pdist
from scipy.special import ndtr

from .errors import ConfigError, DataError, NumericalError
from .permnull import analytic_null_p, dense_invariants, feature_invariants, sampled_null_p

__all__ = [
    "CITestSpec",
    "DataTriple",
    "TestOutcome",
    "fisher_z",
    "kcit",
    "median_heuristic",
    "rcit",
    "run_cit",
]

_METHODS = ("fisherz", "kcit", "rcit")

# Bandwidth conventions.  Both kernel tests use sigma = c * median pairwise
# distance.  At c = 1 the moment-matched gamma nulls are only borderline
# calibrated and both statistics saturate on smooth conditional signals at
# moderate n, leaving no headroom to observe power trends; widening the
# kernel tempers the high-frequency components responsible for both effects.
# The factors were fixed once against held-out simulations (type I within
# [0.02, 0.09] at n in {400, 1200}) and are not user-tunable: they are part
# of what "kcit"/"rcit" mean in this package.
_KCIT_BANDWIDTH_SCALE = 2.0
_RCIT_BANDWIDTH_SCALE = 4.0
# The median is taken over at most this many rows.
_MEDIAN_ROWS = 1000

# Rows per slice when an n x n matrix is centred or mirrored in place: the
# temporaries stay a few rows wide instead of n x n.
_ROW_BLOCK = 64
_STRICT_LOWER = np.tri(_ROW_BLOCK, k=-1, dtype=bool)


def _lapack_routine(name):
    """LAPACK routine ``name`` from scipy's Cython table, callable by ctypes.

    The table holds the raw function pointers behind ``scipy.linalg``, as
    capsules.  A ``CFUNCTYPE`` call releases the GIL while LAPACK runs, which
    scipy's own wrappers do not, so concurrent subtests overlap their work.
    Only routines with the ``(uplo, n, a, lda, info)`` signature are bound.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    c_int_p = ctypes.POINTER(ctypes.c_int)
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, c_int_p, ctypes.c_void_p, c_int_p, c_int_p)
    return prototype(get_pointer(capsule, get_name(capsule)))


_DPOTRF = _lapack_routine("dpotrf")
_DPOTRI = _lapack_routine("dpotri")


def _as_block(arr, name):
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DataError(f"{name} must be a vector or matrix, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class DataTriple:
    """An (x, y, z) sample for testing x independent of y given z.

    ``z`` may have zero columns, meaning an unconditional test.  ``meta`` is
    free-form provenance (generators attach ground truth and debug latents
    here); it takes no part in equality or validation.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        x = _as_block(self.x, "x")
        y = _as_block(self.y, "y")
        z = self.z
        z = np.empty((x.shape[0], 0)) if z is None else _as_block(z, "z")
        if not (x.shape[0] == y.shape[0] == z.shape[0]):
            raise DataError(
                f"row counts differ: x has {x.shape[0]}, y has {y.shape[0]}, z has {z.shape[0]}"
            )
        if x.shape[0] < 8:
            raise DataError(f"need at least 8 rows, got {x.shape[0]}")
        for name, block in (("x", x), ("y", y), ("z", z)):
            if block.size and not np.all(np.isfinite(block)):
                raise DataError(f"non-finite values in {name}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n(self):
        return self.x.shape[0]

    def take(self, idx):
        """Row subset as a new DataTriple (metadata not propagated)."""
        idx = np.asarray(idx)
        return DataTriple(self.x[idx], self.y[idx], self.z[idx])


@dataclass(frozen=True)
class CITestSpec:
    """Method selector plus per-method settings."""

    method: str = "kcit"
    num_features_xy: int = 100
    num_features_z: int = 100
    ridge: float = 1e-3
    permutations: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if self.num_features_xy < 5 or self.num_features_z < 5:
            raise ConfigError("feature counts must be >= 5")
        if not (0 < self.ridge < 1):
            raise ConfigError(f"ridge must be in (0, 1), got {self.ridge}")
        if self.permutations < 0:
            raise ConfigError("permutations must be >= 0")


@dataclass(frozen=True)
class TestOutcome:
    p: float
    statistic: float
    method: str
    n_used: int
    elapsed: float
    subtest_ps: tuple | None = None
    flags: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise DataError(f"p must be in [0, 1], got {self.p}")


def median_heuristic(points):
    """Median pairwise Euclidean distance over at most 1000 rows.

    Rows beyond 1000 are thinned to an evenly spaced subsample, deterministic
    in the row order.  The median is selected among the squared distances
    (see :func:`_median_distance`).  Non-finite points raise ``DataError``:
    NaN and inf distances would otherwise be moved aside by the selection
    and go unnoticed.
    """
    pts = _as_block(points, "points")
    n = pts.shape[0]
    if n < 2:
        raise DataError("median heuristic needs at least 2 rows")
    bad = pts[~np.isfinite(pts)]
    if bad.size:
        raise DataError(f"median heuristic needs finite points; got {bad.size} "
                        f"non-finite value(s): {', '.join(sorted(set(map(str, bad))))}")
    if n > _MEDIAN_ROWS:
        pts = pts[np.unique(np.linspace(0, n - 1, _MEDIAN_ROWS).astype(int))]
    return _median_distance(pdist(pts, "sqeuclidean"))


def _median_distance(sq):
    """Median of sqrt(sq) for condensed squared distances ``sq``, reordered in place.

    One selection of the upper middle order statistic; for an even count the
    lower one is the maximum of the part below it.  Only those one or two
    values are square-rooted and averaged as ``np.median`` does, so the result
    equals ``np.median(pdist(pts))`` bit for bit: sqrt is monotone and
    correctly rounded, and scipy's Euclidean distance is the square root of
    its squared one.
    """
    half = sq.size // 2
    sq.partition(half)
    med = math.sqrt(sq[half])
    if sq.size % 2 == 0:
        med = (math.sqrt(sq[:half].max()) + med) / 2
    if med <= 0.0:
        raise DataError("median pairwise distance is zero; input rows are (nearly) identical")
    if not math.isfinite(med):
        raise DataError("median pairwise distance overflows; rescale the input")
    return med


def _standardize(block, name):
    mu = block.mean(axis=0)
    sd = block.std(axis=0)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise DataError(f"column {bad[0]} of {name} is constant; kernel bandwidth undefined")
    return (block - mu) / sd


def _center(K):
    """Double-center the symmetric K in place and return it.

    Entry (i, j) loses m_i + m_j for one vector m of column means.  The sum
    is commutative, so an exactly symmetric K stays exactly symmetric.
    """
    m = K.mean(axis=0)
    mean = m.mean()
    for lo in range(0, K.shape[0], _ROW_BLOCK):
        K[lo:lo + _ROW_BLOCK] -= m[lo:lo + _ROW_BLOCK, None] + m
    K += mean
    return K


def _spd_inverse(a):
    """Invert the symmetric positive definite ``a`` in place and return it.

    LAPACK ``dpotrf`` then ``dpotri``, with the GIL released.  ``a`` must be
    a C-contiguous float64 square array with equal triangles: LAPACK reads
    the buffer as its Fortran transpose, so it works on the upper triangle in
    C order.  The result is mirrored into the lower one and is exactly
    symmetric.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.flags.c_contiguous:
        raise ValueError("_spd_inverse needs a C-contiguous float64 square array")
    n = a.shape[0]
    size, info = ctypes.c_int(n), ctypes.c_int(0)
    for routine, step in ((_DPOTRF, "Cholesky factorization"), (_DPOTRI, "inversion")):
        routine(b"L", size, a.ctypes.data, size, info)
        if info.value != 0:
            raise NumericalError(f"{step} of the {n} x {n} ridge matrix failed (LAPACK info {info.value})")
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        a[lo:hi, :lo] = a[:lo, lo:hi].T
        diag = a[lo:hi, lo:hi]
        np.copyto(diag, diag.T, where=_STRICT_LOWER[:hi - lo, :hi - lo])
    return a


def _gaussian_gram(block, out=None, scratch=None):
    """Gaussian Gram matrix of the rows of ``block``, from one ``pdist`` pass.

    The matrix is written into ``out``, a C-contiguous n x n float64 array,
    and the condensed squared distances into the first n (n - 1) / 2 entries
    of ``scratch``, a C-contiguous float64 array; the old contents of both
    are ignored, and either one missing is allocated.  Up to 1000 rows the
    bandwidth is selected from a copy of those distances, held in ``out``
    until the matrix overwrites it; beyond that it comes from the thinned
    rows of :func:`median_heuristic`.  The kernel is evaluated on the
    condensed vector, half the entries of the matrix, and scattered into
    ``out`` by the routine ``squareform`` runs after its ``np.zeros``; the
    diagonal is exp(-0.0) = 1.0.
    """
    n = block.shape[0]
    m = n * (n - 1) // 2
    K = np.empty((n, n)) if out is None else out
    sq = pdist(block, "sqeuclidean", out=None if scratch is None else scratch.reshape(-1)[:m])
    if n <= _MEDIAN_ROWS:
        copy = K.reshape(-1)[:m]
        copy[:] = sq
        med = _median_distance(copy)
    else:
        med = median_heuristic(block)
    sigma = _KCIT_BANDWIDTH_SCALE * med
    np.negative(sq, out=sq)
    sq /= 2.0 * sigma * sigma
    to_squareform_from_vector_wrap(K, np.exp(sq, out=sq))
    np.fill_diagonal(K, 1.0)
    return K


class _Workspace:
    """Five n x n float64 buffers that one thread reuses across kcit calls.

    :meth:`take` hands out C-contiguous n x n views of them, holding whatever
    the last call left.  The storage grows to the largest n taken and lives
    as long as the workspace: at n = 5000 that is 1 GB, so a thread drops its
    workspace once its batch of subtests is done.
    """

    def __init__(self):
        self._flat = ()

    def take(self, n):
        if not self._flat or self._flat[0].size < n * n:
            self._flat = ()  # free the old storage before the new is allocated
            self._flat = tuple(np.empty(n * n) for _ in range(5))
        return tuple(f[:n * n].reshape(n, n) for f in self._flat)


def fisher_z(data):
    """Partial-correlation test via the Fisher z-transform.

    statistic = sqrt(n - d_z - 3) * atanh(r), two-sided normal p-value.  With
    d_z = 0 this degenerates continuously to the marginal correlation test.
    """
    t0 = time.perf_counter()
    if data.x.shape[1] != 1 or data.y.shape[1] != 1:
        raise ConfigError("fisher_z requires univariate x and y")
    n, dz = data.n, data.z.shape[1]
    if n <= dz + 3:
        raise DataError(f"fisher_z needs n > d_z + 3 (n={n}, d_z={dz})")
    # partial correlation as the correlation of regression residuals; this
    # stays well-defined when x and y are perfectly correlated (saturation)
    # and only breaks when the conditioning design itself is degenerate
    design = np.hstack([np.ones((n, 1)), data.z])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise DataError("collinear conditioning set: z columns are linearly dependent")
    xy = np.hstack([data.x, data.y])
    coef, *_ = np.linalg.lstsq(design, xy, rcond=None)
    resid = xy - design @ coef
    norms = np.sqrt((resid * resid).sum(axis=0))
    # residual norm at rounding-error scale means the variable is a linear
    # function of the conditioning set and the partial correlation is 0/0
    floor = 1e-10 * np.sqrt((xy * xy).sum(axis=0)) + 1e-300
    if np.any(norms <= floor):
        which = "x" if norms[0] <= floor[0] else "y"
        raise DataError(f"{which} is an exact linear function of the conditioning set")
    r = float((resid[:, 0] @ resid[:, 1]) / (norms[0] * norms[1]))
    if abs(r) >= 1.0 - 1e-12:
        return TestOutcome(p=0.0, statistic=np.inf if r > 0 else -np.inf, method="fisherz",
                           n_used=n, elapsed=time.perf_counter() - t0, flags=("saturated",))
    stat = float(np.sqrt(n - dz - 3.0) * np.arctanh(r))
    p = float(2.0 * ndtr(-abs(stat)))
    return TestOutcome(p=p, statistic=stat, method="fisherz", n_used=n,
                       elapsed=time.perf_counter() - t0)


def kcit(data, spec=None, *, _workspace=None):
    """Kernel CI test: trace statistic of z-regressed kernels, permutation-cumulant null.

    With d_z > 0 the regression on z is Rz = eps (Kz + eps I)^-1 with
    eps = ridge * n, from LAPACK's Cholesky factorization and inverse
    (:func:`_spd_inverse`).  Rz is exactly symmetric.

    Memory: five n x n buffers, from ``_workspace`` (a :class:`_Workspace`)
    or a fresh one.  Kz, then Rz, takes the first; A and B the next two; the
    fourth holds each Gram's condensed distances and then the Rz K product;
    the statistic's A * B goes into the dead Rz buffer; and the invariants'
    M @ M, M * M and product buffer go into the Rz, fourth and fifth ones.
    Outside the sampled permutation null nothing else n x n is allocated,
    so a thread that reuses one workspace across calls does not fault fresh
    pages in on every call.

    Threads: the ridge inverse, the products with Rz (BLAS) and numpy's
    n x n elementwise work run with the GIL released, so subtests on
    several threads overlap them.  What holds it is one scipy ``pdist`` and
    one ``squareform`` scatter per Gram matrix (the bandwidth selection
    reuses that ``pdist``), the Python glue, the cumulant tables and the
    null tail.  A workspace must not be shared by two threads at once.
    """
    t0 = time.perf_counter()
    spec = spec or CITestSpec(method="kcit")
    n, dz = data.n, data.z.shape[1]
    if n > 5000:
        raise ConfigError(f"kcit is cubic in n; refusing n={n} > 5000 (use an ensemble)")
    x = _standardize(data.x, "x")
    y = _standardize(data.y, "y")
    Rz, A, B, tmp, spare = (_workspace or _Workspace()).take(n)
    if dz:
        z = _standardize(data.z, "z")
        _center(_gaussian_gram(z, out=Rz, scratch=tmp))
        eps = spec.ridge * n
        Rz.flat[::n + 1] += eps
        _spd_inverse(Rz)
        Rz *= eps
        for K, block in ((A, np.hstack([x, z])), (B, y)):
            _center(_gaussian_gram(block, out=K, scratch=tmp))
            np.matmul(np.matmul(Rz, K, out=tmp), Rz, out=K)
    else:
        _center(_gaussian_gram(x, out=A, scratch=tmp))
        _center(_gaussian_gram(y, out=B, scratch=tmp))

    stat = float(np.multiply(A, B, out=Rz).sum())
    if spec.permutations > 0:
        p, flags = sampled_null_p(stat, lambda perm: (A[np.ix_(perm, perm)] * B).sum(),
                                  n, spec.permutations, spec.seed)
    else:
        scratch = (Rz, tmp, spare)
        p, flags = analytic_null_p(stat, dense_invariants(A, _scratch=scratch),
                                   dense_invariants(B, _scratch=scratch), n)
    return TestOutcome(p=p, statistic=stat, method="kcit", n_used=n,
                       elapsed=time.perf_counter() - t0, flags=flags)


def _rff(block, n_features, sigma, rng):
    """Random Fourier features for the Gaussian kernel with bandwidth sigma."""
    d = block.shape[1]
    W = rng.normal(0.0, 1.0 / sigma, size=(d, n_features))
    b = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    features = block @ W
    features += b
    np.cos(features, out=features)
    features *= np.sqrt(2.0 / n_features)
    return features


def rcit(data, spec=None):
    """Random-Fourier-feature CI test: residualized cross-covariance statistic.

    Deterministic given spec.seed (feature frequencies and phases are the only
    randomness).

    Known miscalibration: on PNL H0 samples (seeds 5000-5099, feature seed =
    sample seed) the test rejects at 0.05 on 13 of 100 at n = 2000 with
    d_z = 2, against 3 of 100 at n = 2000 with d_z = 1 and 5 of 100 at n = 400
    with d_z = 2.  Ensembles over such subsets carry the excess up.
    """
    t0 = time.perf_counter()
    spec = spec or CITestSpec(method="rcit")
    n, dz = data.n, data.z.shape[1]
    x = _standardize(data.x, "x")
    y = _standardize(data.y, "y")
    rng = np.random.default_rng(spec.seed)
    if dz:
        z = _standardize(data.z, "z")
        xa = np.hstack([x, z])
        ex = _rff(xa, spec.num_features_xy, _RCIT_BANDWIDTH_SCALE * median_heuristic(xa), rng)
        ey = _rff(y, spec.num_features_xy, _RCIT_BANDWIDTH_SCALE * median_heuristic(y), rng)
        fz = _rff(z, spec.num_features_z, _RCIT_BANDWIDTH_SCALE * median_heuristic(z), rng)
        ex -= ex.mean(axis=0)
        ey -= ey.mean(axis=0)
        fz -= fz.mean(axis=0)
        # ridge-residualize the x and y features on the z features, in place
        czz = fz.T @ fz / n + spec.ridge * np.eye(fz.shape[1])
        chol = cho_factor(czz, lower=True)
        ex -= fz @ cho_solve(chol, fz.T @ ex / n)
        ey -= fz @ cho_solve(chol, fz.T @ ey / n)
        del fz
    else:
        ex = _rff(x, spec.num_features_xy, _RCIT_BANDWIDTH_SCALE * median_heuristic(x), rng)
        ey = _rff(y, spec.num_features_xy, _RCIT_BANDWIDTH_SCALE * median_heuristic(y), rng)
        ex -= ex.mean(axis=0)
        ey -= ey.mean(axis=0)

    cross = ex.T @ ey / n
    stat = float(n * (cross * cross).sum())
    if spec.permutations > 0:
        def permuted(perm):
            c = ex.T @ ey[perm] / n
            return n * (c * c).sum()
        p, flags = sampled_null_p(stat, permuted, n, spec.permutations, spec.seed + 1)
    else:
        # the reported statistic is tr(A B) / n for the outer-product kernels
        # A = ex ex', B = ey ey'; calibrate on the unscaled trace
        inv_x = feature_invariants(ex)
        del ex
        p, flags = analytic_null_p(n * stat, inv_x, feature_invariants(ey), n)
    return TestOutcome(p=p, statistic=stat, method="rcit", n_used=n,
                       elapsed=time.perf_counter() - t0, flags=flags)


def run_cit(data, spec, *, _workspace=None):
    """Dispatch to the test named by spec.method.

    ``_workspace`` is handed to :func:`kcit` and ignored by the other tests.
    """
    if spec.method == "fisherz":
        return fisher_z(data)
    if spec.method == "kcit":
        return kcit(data, spec, _workspace=_workspace)
    return rcit(data, spec)
