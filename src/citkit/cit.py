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
* both regress x's and y's sides on z the same way, by I - U U' with U from
  a ridge eps on a centred factor of z's kernel: kcit's factors are
  pivoted-Cholesky factors of its centred Gram matrices, dense Grams where
  their rank is large (see :func:`kcit`), with eps = ridge * n; rcit's are
  random Fourier features, with eps = ridge * n times the mean variance of a
  centred z feature, about ridge * n / num_features_z (see :func:`rcit`);
* both compute one statistic, tr(A B) of their two sides (rcit reports it
  divided by n), and calibrate it by :mod:`citkit.permnull` in one place: by
  default on the analytic null of the trace statistic
  (:func:`~citkit.permnull.analytic_null_p`, a normal-gamma convolution
  matched to the exact first four cumulants of the statistic under random
  permutation, with a flagged two-moment gamma fallback), or with
  ``permutations > 0`` on a sampled permutation null for validation
  (:func:`~citkit.permnull.sampled_null_p`).

Cost: kcit builds n x n Grams and is refused above 5000 rows.  rcit at fixed
feature counts is linear in n from n = k^3 / 4 rows on (250 at the default
10 x and y features): its features, z regression and statistic are products
with n rows, :func:`median_heuristic` looks at 1000 rows at most, and the
power sums of :func:`~citkit.permnull.feature_invariants` go through feature
space.
"""

import ctypes
import math
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cython_blas, cython_lapack
from scipy.spatial._distance_wrap import to_squareform_from_vector_wrap
from scipy.spatial.distance import pdist
from scipy.special import ndtr

from .errors import ConfigError, DataError, NumericalError
from .permnull import (_INVARIANT_NAMES, analytic_null_p, dense_invariants, feature_invariants,
                       sampled_null_p)

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

# kcit factors each block's centred Gram by LAPACK dpstrf on its dense Gram
# (_pivoted_cholesky), with the GIL released, until the trace of the
# residual falls to _FACTOR_TOL * n.
#
# z is factored at every n and every rank (_z_factor), and Rz is applied
# through that factor alone.  Where z's rank passes about 0.67 n, inverting
# Kz + eps I dense would be cheaper than the Woodbury update (on one core,
# kcit at n = 400 with six columns of z, rank n, takes 28 ms against 22 ms
# that way), but no benchmark workload reaches such a rank: its z ranks are
# 13-114 at n = 200 and about 13 and 157-159 at n = 400.
#
# The x and y blocks are factored the same way (_side_factor) from
# _FACTOR_MIN_ROWS rows up, and keep the factor while its rank stays at most
# _RANK_CAP_SHARE * n.  dpstrf cannot stop at a rank, so the cap chooses
# after it: a block past the cap has built its Gram and run dpstrf for
# nothing, and builds its Gram again for the dense path.  (x, z), whose rank
# is at least z's, is not tried once z's rank passes the cap.  Measured on a
# shared 2-vCPU Xeon with two subtest threads of one BLAS thread each, as
# ecit runs them, the ecit_kcit benchmark (n = 400, d_z 1 and 3) ran 10.20
# queries/s this way against 10.14 with the greedy Python-loop factor it
# replaced (medians of 10 pairs); its x and y blocks have ranks 9-93 against
# a cap of 100, so none is built twice.  On one core a factored call costs
# more, for it pays for the full Gram: 6.0 -> 7.1 ms at n = 400 with
# d_z = 1, 15.5 -> 16.4 ms with d_z = 3, and 24 -> 34 ms at n = 1000 with
# d_z = 1.  The floor stays because below it dpstrf sides won nothing clear:
# at n = 200 on two threads they ran 327 and 273 calls/s against 357 and 280
# dense, in two noisy rounds, and the pc_kcit benchmark (n_k = 200) keeps its
# dense x and y.  The cap of n / 4 was set for memory with the greedy factor;
# it sends the (x, z) blocks of d_z = 3 at n = 400 (z rank about 157) dense,
# and those run faster dense, 14.6 against 24.5 ms factored.
_FACTOR_TOL = 1e-12
_RANK_CAP_SHARE = 0.25
_FACTOR_MIN_ROWS = 350

# Bytes of the slab in which a _Memo keeps z factors, r_z n floats each.
_Z_STORE_BYTES = 3 << 19


def _scipy_routine(table, name, *argtypes):
    """BLAS or LAPACK routine ``name`` from scipy's Cython ``table``, callable by ctypes.

    ``cython_blas`` and ``cython_lapack`` hold the raw function pointers
    behind ``scipy.linalg``, as capsules; ``argtypes`` is the routine's
    Fortran signature, every argument by pointer.  A
    ``CFUNCTYPE`` call releases the GIL while the routine runs, which scipy's
    own wrappers do not, so concurrent subtests overlap their work.
    """
    capsule = table.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    prototype = ctypes.CFUNCTYPE(None, *argtypes)
    return prototype(get_pointer(capsule, get_name(capsule)))


_CHAR, _ARRAY = ctypes.c_char_p, ctypes.c_void_p
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# (uplo, n, a, lda, info)
_DPOTRF = _scipy_routine(cython_lapack, "dpotrf", _CHAR, _INT, _ARRAY, _INT, _INT)
# (uplo, n, a, lda, piv, rank, tol, work, info)
_DPSTRF = _scipy_routine(cython_lapack, "dpstrf", _CHAR, _INT, _ARRAY, _INT, _ARRAY, _INT,
                         _DOUBLE, _ARRAY, _INT)
# (transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
_DGEMM = _scipy_routine(cython_blas, "dgemm", _CHAR, _CHAR, _INT, _INT, _INT, _DOUBLE, _ARRAY,
                        _INT, _ARRAY, _INT, _DOUBLE, _ARRAY, _INT)
# (uplo, trans, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
_DSYR2K = _scipy_routine(cython_blas, "dsyr2k", _CHAR, _CHAR, _INT, _INT, _DOUBLE, _ARRAY, _INT,
                         _ARRAY, _INT, _DOUBLE, _ARRAY, _INT)
# (side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
_DTRSM = _scipy_routine(cython_blas, "dtrsm", _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE,
                        _ARRAY, _INT, _ARRAY, _INT)


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

    method: str = "kcit"         # "fisherz", "kcit" or "rcit"
    num_features_xy: int = 10    # rcit only: random features of (x, z) and of y, each
    num_features_z: int = 100    # rcit only: random features of z
    ridge: float = 1e-3          # z regression: kcit eps = ridge * n, rcit ridge * |Fz|_F^2 / k_z
    permutations: int = 0        # kernel tests: > 0 samples this many permutations for p
    seed: int = 0                # kernel tests' permutations, and rcit's features

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


def _center(K, scratch=None):
    """Double-center the symmetric K in place and return it.

    Entry (i, j) loses m_i + m_j for one vector m of column means.  The sum
    is commutative, so an exactly symmetric K stays exactly symmetric.  The
    sums are built 64 rows at a time in the first 64 n entries of
    ``scratch``, an n x n float64 array other than K, or else in one fresh
    64 x n block.
    """
    n = K.shape[0]
    m = K.mean(axis=0)
    mean = m.mean()
    rows = min(_ROW_BLOCK, n)
    flat = np.empty(rows * n) if scratch is None else scratch.reshape(-1)[:rows * n]
    block = flat.reshape(rows, n)
    for lo in range(0, n, _ROW_BLOCK):
        sums = block[:min(lo + _ROW_BLOCK, n) - lo]
        sums[:] = m
        sums += m[lo:lo + _ROW_BLOCK, None]
        K[lo:lo + _ROW_BLOCK] -= sums
    K += mean
    return K


def _check_square(a, caller):
    """Raise ValueError unless ``a`` is a C-contiguous float64 square array."""
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.flags.c_contiguous:
        raise ValueError(f"{caller} needs a C-contiguous float64 square array")


def _whiten(g, a):
    """Overwrite ``a`` with L^-1 a, where L L' = ``g``, and return it.

    ``g`` is an r x r symmetric positive definite matrix with equal
    triangles and ``a`` an r x m matrix, both C-contiguous float64; ``g``
    is overwritten by its factor.  LAPACK ``dpotrf`` factors ``g`` and BLAS
    ``dtrsm`` applies L^-1, both with the GIL released.  In Fortran order
    they see the transposes: the lower triangle of g' = g, and the m x r
    matrix a', which ``dtrsm`` overwrites with a' L^-T.  LAPACK's info other
    than 0 raises ``NumericalError``.
    """
    _check_square(g, "_whiten")
    r = g.shape[0]
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != r or not a.flags.c_contiguous:
        raise ValueError(f"_whiten needs a C-contiguous float64 array of {r} rows")
    size, info = ctypes.c_int(r), ctypes.c_int(0)
    _DPOTRF(b"L", size, g.ctypes.data, size, info)
    if info.value != 0:
        raise NumericalError(f"Cholesky factorization of the {r} x {r} ridge matrix failed "
                             f"(LAPACK info {info.value})")
    cols = ctypes.c_int(a.shape[1])
    _DTRSM(b"R", b"L", b"T", b"N", cols, size, ctypes.c_double(1.0), g.ctypes.data, size,
           a.ctypes.data, cols)
    return a


def _mirror_upper(a):
    """Copy the upper triangle of the C-contiguous square ``a`` into its lower one."""
    n = a.shape[0]
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        a[lo:hi, :lo] = a[:lo, lo:hi].T
        diag = a[lo:hi, lo:hi]
        np.copyto(diag, diag.T, where=_STRICT_LOWER[:hi - lo, :hi - lo])
    return a


def _pivoted_cholesky(a, tol):
    """Factor the positive semidefinite ``a`` in place by LAPACK ``dpstrf``: (rank, pivots).

    ``a`` is a C-contiguous float64 square array with equal triangles.  The
    factorization stops once the largest pivot left is at most ``tol``, so
    the residual's trace is at most n * tol.  With r the rank and p the
    0-based pivots, row k < r of ``a`` then holds column k of the factor L
    (a[p][:, p] = L L' up to the residual) in its entries k to n - 1; the
    entries left of the diagonal keep what they held.  The GIL is released
    while LAPACK runs.  LAPACK's info > 0 only says that ``a`` has rank
    below n; info < 0 raises ``NumericalError``.
    """
    _check_square(a, "_pivoted_cholesky")
    n = a.shape[0]
    piv = np.empty(n, dtype=np.intc)
    work = np.empty(2 * n)
    size, rank, info = ctypes.c_int(n), ctypes.c_int(0), ctypes.c_int(0)
    _DPSTRF(b"L", size, a.ctypes.data, size, piv.ctypes.data, rank, ctypes.c_double(tol),
            work.ctypes.data, info)
    if info.value < 0:
        raise NumericalError(f"pivoted Cholesky of the {n} x {n} Gram failed "
                             f"(LAPACK info {info.value})")
    piv -= 1
    return rank.value, piv


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
        sigma = _KCIT_BANDWIDTH_SCALE * _median_distance(copy)
    else:
        sigma = _KCIT_BANDWIDTH_SCALE * median_heuristic(block)
    np.negative(sq, out=sq)
    sq /= 2.0 * sigma * sigma
    to_squareform_from_vector_wrap(K, np.exp(sq, out=sq))
    np.fill_diagonal(K, 1.0)
    return K


class _Workspace:
    """Up to five n x n float64 buffers that one thread reuses across kcit calls.

    :meth:`take` hands out a C-contiguous n x n view of buffer ``i``, holding
    whatever the last call left, and allocates only the buffers that are
    taken; :func:`kcit` lists which calls take which.  Each buffer grows to
    the largest n it is taken for and lives as long as the workspace: at
    n = 5000 the five are 1 GB, so a thread drops its workspace once its
    batch of subtests is done.
    """

    def __init__(self):
        self._flat = [None] * 5

    def take(self, n, i):
        flat = self._flat[i]
        if flat is None or flat.size < n * n:
            self._flat[i] = None  # free the old storage before the new is allocated
            self._flat[i] = flat = np.empty(n * n)
        return flat[:n * n].reshape(n, n)


class _MemoKeys(NamedTuple):
    """A kcit call's keys into a :class:`_Memo`: z's, and those of its two sides."""

    memo: "_Memo"
    z: tuple
    x: tuple
    y: tuple


class _Memo:
    """z factors and side invariants shared by kcit calls on subsets of one data matrix.

    PC asks many queries (i, j, S) of one matrix, and an ensemble splits
    each one into the same K row subsets, so the z of (S, subset k) and the
    sides of (i, S, k) and (j, S, k) recur; with S empty the x side of a
    column is the y side of it.  :meth:`keys` names them, and a kcit call
    handed those keys takes what was stored under them instead of building
    it again.  Every statistic is built fresh.  The caller keeps one memo
    per data matrix, base test and subset size.

    The z store holds each factor U' as the r_z n floats it fills at the
    head of workspace buffer 0, in one slab of ``_Z_STORE_BYTES`` that is
    refilled first in, first out; a factor larger than the slab is not
    kept.  The invariants store keeps every side's 20 invariants.  Both are
    guarded by one lock, under which a z hit is copied into the caller's
    buffer 0, so subtests on several threads may share a memo.
    :meth:`counts` reports each store's hits and misses.
    """

    def __init__(self):
        self._slab = np.empty(_Z_STORE_BYTES // 8)
        self._head = 0
        self._z = {}           # key -> (start, end, r_z) in the slab
        self._invariants = {}  # key -> the invariants in _INVARIANT_NAMES order
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(("z_hits", "z_misses", "invariant_hits",
                                      "invariant_misses"), 0)

    def keys(self, i, j, S, k):
        """The keys of the kcit call on subset ``k`` of the query x = i, y = j, z = S."""
        S = tuple(S)
        if not S:
            return _MemoKeys(self, (S, k), (i, k), (j, k))
        return _MemoKeys(self, (S, k), ("x", i, S, k), ("y", j, S, k))

    def counts(self):
        """Hits and misses of the z and invariants stores so far, as a new dict."""
        with self._lock:
            return dict(self._counts)

    def z_factor(self, key, z, eps, workspace):
        """:func:`_z_factor` of ``z``, taken from the z store when it holds ``key``."""
        n = z.shape[0]
        flat = workspace.take(n, 0).reshape(-1)
        with self._lock:
            entry = self._z.get(key)
            self._counts["z_misses" if entry is None else "z_hits"] += 1
            if entry is not None:
                lo, hi, r = entry
                flat[:hi - lo] = self._slab[lo:hi]
                return flat[:hi - lo].reshape(r, n)
        ut = _z_factor(z, eps, workspace)
        with self._lock:
            if ut.size <= self._slab.size:
                if self._head + ut.size > self._slab.size:
                    self._head = 0
                lo, hi = self._head, self._head + ut.size
                for old, entry in list(self._z.items()):  # evict what the new entry overwrites
                    if entry[0] < hi and lo < entry[1]:
                        del self._z[old]
                self._slab[lo:hi] = ut.reshape(-1)
                self._z[key] = (lo, hi, ut.shape[0])
                self._head = hi
        return ut

    def invariants(self, key, compute):
        """The invariants stored under ``key``, or ``compute()``'s, which are then stored."""
        with self._lock:
            packed = self._invariants.get(key)
            self._counts["invariant_hits" if packed is not None else "invariant_misses"] += 1
        if packed is not None:
            return dict(zip(_INVARIANT_NAMES, packed.tolist()))
        inv = compute()
        packed = np.array([inv[name] for name in _INVARIANT_NAMES])
        with self._lock:
            self._invariants[key] = packed
        return inv


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


def _trace_product(a, b, dense, out):
    """tr(A B) for two sides, each a dense matrix A or a factor e with A = e e'.

    ``dense`` says which of a and b is dense; two dense sides multiply
    entrywise into ``out``, an n x n buffer.
    """
    if all(dense):
        return float(np.multiply(a, b, out=out).sum())
    if dense[0]:
        a, b = b, a
    if any(dense):
        return float(np.vdot(b @ a, a))
    c = a.T @ b
    return float(np.vdot(c, c))


def _permuted(side, dense, perm):
    """The side of A with rows and columns permuted by ``perm``."""
    return side[np.ix_(perm, perm)] if dense else side[perm]


def _trace_test(sides, dense, n, permutations, seed, workspace=None, memo=None):
    """The statistic tr(A B) of a kernel test's two sides [a, b], its p and its flags.

    ``dense`` says of each side whether it is a dense n x n A or an n x m
    factor e with A = e e', of any m.  With ``permutations > 0`` p is
    :func:`~citkit.permnull.sampled_null_p`'s, drawn from ``seed``, with a
    permuted.  Otherwise it is :func:`~citkit.permnull.analytic_null_p`'s
    on each side's invariants, or on those ``memo``, a :class:`_MemoKeys`,
    holds; ``sides`` is emptied as they are taken, b first, so each side is
    let go once it is done.  The buffers of ``workspace`` serve as
    :func:`kcit` describes; without one, every side must be a factor, and
    its invariants allocate their own.
    """
    dense_a, dense_b = dense
    out = workspace.take(n, 0) if dense_a and dense_b else None
    stat = _trace_product(*sides, dense, out)
    if permutations > 0:
        a, b = sides
        return stat, *sampled_null_p(
            stat, lambda perm: _trace_product(_permuted(a, dense_a, perm), b, dense, out),
            n, permutations, seed)

    def invariants(side, is_dense, key):
        def compute():
            if is_dense:
                return dense_invariants(side, _scratch=[workspace.take(n, i) for i in (0, 3, 4)])
            scratch = None if workspace is None else workspace.take(n, 0).reshape(-1)
            return feature_invariants(side, _scratch=scratch)
        return compute() if memo is None else memo.memo.invariants(key, compute)
    inv_b = invariants(sides.pop(), dense_b, memo and memo.y)
    inv_a = invariants(sides.pop(), dense_a, memo and memo.x)
    return stat, *analytic_null_p(stat, inv_a, inv_b, n)


def kcit(data, spec=None, *, _workspace=None, _memo=None):
    """Kernel CI test: trace statistic of z-regressed kernels, permutation-cumulant null.

    The statistic is tr(A B) with A = Rz Kxz Rz and B = Rz Ky Rz, where Kxz
    and Ky are the centred Gaussian Grams of (x, z) and y, and
    Rz = eps (Kz + eps I)^-1 with eps = ridge * n is the ridge regression on
    z (Rz = I when d_z = 0).

    z comes first, at every n: its Gram is built dense and factored in place
    by LAPACK ``dpstrf`` to whatever rank r_z it has, up to n, and
    Rz = I - U U' by Woodbury, with the n x r_z factor U from
    :func:`_z_factor`.  From 350 rows up the (x, z) and y blocks are then
    factored the same way, by :func:`_side_factor`, and keep the factor
    while its rank stays at most n / 4; a block past that builds its Gram
    again, dense.  (x, z), whose rank is at least z's, is built dense
    without a try when r_z passes n / 4.  ``_RANK_CAP_SHARE`` and
    ``_FACTOR_MIN_ROWS`` record the measurements behind these rules.  A factored side becomes e = Rz L = L - U (U' L),
    with A = e e'; a dense side becomes the n x n matrix A, by the symmetric
    update of :func:`_woodbury_regress`, and is exactly symmetric.  The
    statistic is |ex' ey|^2_F for two factors, e' A e for one, and
    sum(A * B) for none, and the invariants of the null come from
    :func:`~citkit.permnull.feature_invariants` for a factor and
    :func:`~citkit.permnull.dense_invariants` for a dense side.  With
    d_z = 0 and both blocks dense, the arithmetic is the dense test's, step
    for step.  With ``permutations > 0`` the sampled null permutes the rows
    of ex, or both axes of a dense A.

    Memory: the n x n buffers of ``_workspace`` (a :class:`_Workspace`, or a
    fresh one) are taken as a call first needs them, and every call takes
    buffer 0.  Buffer 0 holds z's Gram, then its factor U' in the first r_z
    rows; buffers 1 and 2 the dense sides A and B; buffer 3 the condensed
    distances of each x or y Gram, then a dense Gram's 64-row sums of its
    centring, then the update's r_z x n product C; buffer 4 each x or y
    Gram that is tried as a factor, with the factor in its first rows, then
    the update's r_z x r_z product C U, and L L' of :func:`_z_factor`
    before it where r_z passes 0.618 n.  Once the sides are built, buffer 0
    holds ex G and the feature invariants' Q or their two 64-row blocks, and
    the statistic's A * B; the dense invariants' M @ M, M * M and product buffer
    go into buffers 0, 3 and 4.  A call with z and every side factored (r_z
    at most n / 4, n >= 350) holds buffers 0, 3 and 4.  Allocated afresh
    are z's condensed distances, freed before its factor, each
    factorization's pivots, and the n x r sides, copied out of buffer 4.
    At the benchmark's ranks a warm call stays below one n x n array of
    fresh memory, so a thread that reuses one workspace faults no n x n
    array in.  The sampled permutation null allocates more.

    Memo: ``_memo``, the :class:`_MemoKeys` of a :class:`_Memo`, lets calls
    on subsets of one data matrix share work.  A z factor found there is
    copied from the memo's slab into buffer 0, where :func:`_z_factor`
    leaves a fresh one; invariants found there are not computed again.  The
    sides and the statistic are built in full either way, so p is
    bit-identical with and without a memo.

    Threads: ``dpstrf`` and ``dpotrf`` (LAPACK), the ``dtrsm`` that makes
    U, the Woodbury update's ``dgemm`` and ``dsyr2k``, the other products
    (BLAS), and numpy's n x n elementwise work run with the GIL released,
    so subtests on several threads overlap them.  What holds it is the
    ``pdist`` and the ``squareform`` scatter of each Gram, the cumulant
    tables and the null tail; no factor takes a Python step per column.  A
    workspace must not be shared by two threads at once.
    """
    t0 = time.perf_counter()
    spec = spec or CITestSpec(method="kcit")
    n, dz = data.n, data.z.shape[1]
    if n > 5000:
        raise ConfigError(f"kcit is cubic in n; refusing n={n} > 5000 (use an ensemble)")
    workspace = _workspace or _Workspace()
    sides, dense = _kcit_sides(_standardize(data.x, "x"), _standardize(data.y, "y"),
                               _standardize(data.z, "z") if dz else None, spec.ridge * n,
                               workspace, _memo)
    stat, p, flags = _trace_test(sides, dense, n, spec.permutations, spec.seed, workspace,
                                 _memo)
    return TestOutcome(p=p, statistic=stat, method="kcit", n_used=n,
                       elapsed=time.perf_counter() - t0, flags=flags)


def _kcit_sides(x, y, z, eps, workspace, memo=None):
    """kcit's two sides, for (x, z) and y, and whether each is dense.

    Each side is a factor Rz L from :func:`_side_factor` or a dense
    Rz K Rz.  ``z`` is None for d_z = 0, where Rz = I.  Otherwise
    Rz = I - U U' with U' from :func:`_z_factor`: a factored side becomes
    L - U (U' L), and a dense one goes through :func:`_woodbury_regress`.
    (x, z), whose rank is at least z's, is built dense without a try when
    z's rank passes the x and y cap.  The buffers of ``workspace`` are used
    as :func:`kcit` describes, and z's factor comes from ``memo``, a
    :class:`_MemoKeys`, when it is given.
    """
    n = x.shape[0]
    cap = int(_RANK_CAP_SHARE * n) if n >= _FACTOR_MIN_ROWS else 0
    ut, xz, try_xz = None, x, True
    if z is not None:
        if memo is None:
            ut = _z_factor(z, eps, workspace)
        else:
            ut = memo.memo.z_factor(memo.z, z, eps, workspace)
        xz, try_xz = np.hstack([x, z]), ut.shape[0] <= cap

    sides, dense = [], []
    for i, (block, tried) in enumerate(((xz, try_xz), (y, True))):
        L = _side_factor(block, cap, workspace) if tried and cap else None
        dense.append(L is None)
        if L is None:
            tmp = workspace.take(n, 3)
            K = _center(_gaussian_gram(block, out=workspace.take(n, 1 + i), scratch=tmp), tmp)
            sides.append(K if ut is None else _woodbury_regress(K, ut, workspace))
        else:
            sides.append(L if ut is None else _regress_factor(L, ut))
    return sides, dense


def _z_factor(z, eps, workspace):
    """U' for Rz = eps (Kz + eps I)^-1 = I - U U', as an r x n view into buffer 0.

    z's Gaussian Gram is built dense in buffer 0 and factored there by
    :func:`_pivoted_cholesky`; the rank r is whatever ``dpstrf`` returns, up
    to n.  :func:`_centred_factor` makes Lz' of the first r rows of the
    buffer, and :func:`_ridge_factor` turns it into U' in place.  L L' of
    that function and the rows through which the columns are reordered take
    the entries after Lz' while r (n + r) <= n^2, that is up to r = 0.618 n,
    and buffer 4 past that, which the update of the dense (x, z) side takes
    next in any case.
    """
    n = z.shape[0]
    flat = workspace.take(n, 0).reshape(-1)
    r, piv = _pivoted_cholesky(_gaussian_gram(z, out=flat.reshape(n, n)), _FACTOR_TOL)
    rest = flat[r * n:] if r * (n + r) <= n * n else workspace.take(n, 4).reshape(-1)
    return _ridge_factor(_centred_factor(flat, r, piv, rest), eps, rest)


def _side_factor(block, cap, workspace):
    """The n x r factor L of the centred Gaussian Gram of ``block``, or None if r > ``cap``.

    The Gram is built in buffer 4, from distances in buffer 3, and factored
    there by :func:`_pivoted_cholesky`.  Within the cap,
    :func:`_centred_factor` makes L' of the first r rows, and L is copied
    out of the buffer, which the next block's Gram takes.
    """
    n = block.shape[0]
    flat = workspace.take(n, 4).reshape(-1)
    r, piv = _pivoted_cholesky(_gaussian_gram(block, out=flat.reshape(n, n),
                                              scratch=workspace.take(n, 3)), _FACTOR_TOL)
    if r > cap:
        return None
    return _centred_factor(flat, r, piv, flat[r * n:]).T.copy()


def _centred_factor(flat, r, piv, rest):
    """L' of a Gram that :func:`_pivoted_cholesky` factored in ``flat``, as an r x n view.

    ``flat`` is the factored n x n array, raveled, and ``piv`` its pivots.
    L' takes the first r rows: the Gram left over left of their diagonal is
    cleared, the columns are put back in the original row order, through
    rows of ``rest``, a C-contiguous float64 vector of at least n entries
    outside L', and the columns of L are centred.  L L' is then within
    ``_FACTOR_TOL * n`` in trace of the centred Gram H K H, because
    H (K - L L') H is positive semidefinite with a trace no larger than that
    of K - L L'.
    """
    n = piv.size
    lt = flat[:r * n].reshape(r, n)
    for lo in range(0, r, _ROW_BLOCK):  # clear the Gram left of the factor's diagonal
        hi = min(lo + _ROW_BLOCK, r)
        lt[lo:hi, :lo] = 0.0
        np.copyto(lt[lo:hi, lo:hi], 0.0, where=_STRICT_LOWER[:hi - lo, :hi - lo])
    step = rest.size // n
    order = np.empty_like(piv)
    order[piv] = np.arange(n, dtype=piv.dtype)
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        rows = rest[:(hi - lo) * n].reshape(hi - lo, n)
        lt[lo:hi] = np.take(lt[lo:hi], order, axis=1, out=rows, mode="clip")
    lt -= lt.mean(axis=1, keepdims=True)
    return lt


def _ridge_factor(lt, eps, scratch=None):
    """U' for eps (F F' + eps I)^-1 = I - U U', in place in ``lt``, the r x n F'.

    By Woodbury U = F L^-T, where L L' = F' F + eps I, and :func:`_whiten`
    turns F' into U'.  L L' takes the first r^2 entries of ``scratch``, a
    C-contiguous float64 vector, or fresh memory.
    """
    r = lt.shape[0]
    g = np.matmul(lt, lt.T, out=None if scratch is None else scratch[:r * r].reshape(r, r))
    g.flat[::r + 1] += eps
    return _whiten(g, lt)


def _regress_factor(e, ut):
    """Rz e = e - U (U' e), in place in the n x m factor ``e``; ``ut`` is U'."""
    e -= ut.T @ (ut @ e)
    return e


def _woodbury_regress(K, ut, workspace):
    """Rz K Rz for Rz = I - U U', in place in the dense centred Gram K; ``ut`` is U'.

    With C = U' K and F = C - (C U) U' / 2, Rz K Rz = K - (U F + F' U').
    BLAS ``dsyr2k`` subtracts the bracket from the upper triangle of K, which
    is then mirrored, so the result is exactly symmetric: 2 n^2 r multiply-
    adds and 2 n r^2 more, against 2 n^3 for the dense products.  C, then
    F, takes the first r x n entries of buffer 3 and C U the first r^2 of
    buffer 4.
    """
    r, n = ut.shape
    C = np.matmul(ut, K, out=workspace.take(n, 3).reshape(-1)[:r * n].reshape(r, n))
    V = np.matmul(C, ut.T, out=workspace.take(n, 4).reshape(-1)[:r * r].reshape(r, r))
    rows, size = ctypes.c_int(n), ctypes.c_int(r)
    # in Fortran order BLAS sees ut, C and V as the n x r U and C' and the r x r V'
    _DGEMM(b"N", b"N", rows, size, size, ctypes.c_double(-0.5), ut.ctypes.data, rows,
           V.ctypes.data, size, ctypes.c_double(1.0), C.ctypes.data, rows)
    _DSYR2K(b"L", b"N", rows, size, ctypes.c_double(-1.0), ut.ctypes.data, rows, C.ctypes.data,
            rows, ctypes.c_double(1.0), K.ctypes.data, rows)
    return _mirror_upper(K)


def _rff(block, n_features, rng, by_row=False):
    """Centred random Fourier features of the rows of ``block`` for rcit's Gaussian kernel.

    An n x k array, or with ``by_row`` its transpose, built as a C-contiguous
    k x n array.
    """
    sigma = _RCIT_BANDWIDTH_SCALE * median_heuristic(block)
    W = rng.normal(0.0, 1.0 / sigma, size=(block.shape[1], n_features))
    b = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    features = W.T @ block.T if by_row else block @ W
    features += b[:, None] if by_row else b
    np.cos(features, out=features)
    features *= np.sqrt(2.0 / n_features)
    features -= features.mean(axis=1 if by_row else 0, keepdims=True)
    return features


def rcit(data, spec=None):
    """Random-Fourier-feature CI test: kcit with random features for factors.

    The sides are the ``num_features_xy`` features ex of (x, z) and ey of
    y, regressed on z as in kcit, by I - U U', with z's ``num_features_z``
    features Fz in place of its pivoted-Cholesky factor.  The ridge is
    eps = ridge * |Fz|_F^2 / num_features_z, the ridge times n times the
    mean variance of a centred z feature, which is about 1 / num_features_z:
    kcit's eps = ridge * n would shrink the regression on such features much
    harder, and at n = 2000 with d_z = 2 it let 13 of 100 H0 samples reject
    at 0.05.  The statistic reported is tr(A B) / n, and the null is kcit's
    on tr(A B); the sampled one permutes the rows of ey and draws from
    ``spec.seed + 1``.  Deterministic given spec.seed (feature frequencies
    and phases are the only randomness).

    The feature counts follow RCIT (Strobl, Zhang & Visweswaran 2019) for z,
    100, and double its 5 for x and y: with 5, the H0 p-values at n = 400
    sit high (54 % above 0.5, a KS statistic of 0.050 over 1000 samples
    against the 0.01 critical value of 0.052) and power at n = 1200 drops
    to 0.825, against 0.875 with 10.  Calibration with the defaults, on PNL
    H0 samples (seeds 5000-5099, feature seed = sample seed): 3 of 100
    reject at 0.05 at n = 2000 with d_z = 2, 3 of 100 with d_z = 1, and
    3 of 100 at n = 400 with d_z = 2; over 1000 samples at n = 2000 with
    d_z = 2, 6.3 %.

    Cost: linear in n at fixed feature counts, from n = k^3 / 4 rows on for
    k = ``num_features_xy``.  The three bandwidths come from at most 1000
    rows each (:func:`median_heuristic`), and the invariants of both sides
    take the feature-space path of
    :func:`~citkit.permnull.feature_invariants`, O(n k^4), instead of its
    O(n^2 k) sweep.  At n = 2000 with d_z = 2 a call takes 18.7 ms on one
    core, against 28.5 ms with the sweep.
    """
    t0 = time.perf_counter()
    spec = spec or CITestSpec(method="rcit")
    n, dz = data.n, data.z.shape[1]
    x, y = _standardize(data.x, "x"), _standardize(data.y, "y")
    z = _standardize(data.z, "z") if dz else None
    rng = np.random.default_rng(spec.seed)
    ex = _rff(x if z is None else np.hstack([x, z]), spec.num_features_xy, rng)
    sides = [_rff(y, spec.num_features_xy, rng), ex]  # ey first, as the sampled null permutes it
    del ex
    if dz:
        fz = _rff(z, spec.num_features_z, rng, by_row=True)
        ut = _ridge_factor(fz, spec.ridge * np.vdot(fz, fz) / spec.num_features_z)
        sides = [_regress_factor(side, ut) for side in sides]
        del fz, ut
    stat, p, flags = _trace_test(sides, (False, False), n, spec.permutations, spec.seed + 1)
    return TestOutcome(p=p, statistic=stat / n, method="rcit", n_used=n,
                       elapsed=time.perf_counter() - t0, flags=flags)


def run_cit(data, spec, *, _workspace=None, _memo=None):
    """Dispatch to the test named by spec.method.

    ``_workspace`` and ``_memo`` are handed to :func:`kcit` and ignored by
    the other tests.
    """
    if spec.method == "fisherz":
        return fisher_z(data)
    if spec.method == "kcit":
        return kcit(data, spec, _workspace=_workspace, _memo=_memo)
    return rcit(data, spec)
