"""Calibrated null for bilinear kernel trace statistics.

Both kernel tests reduce to a statistic of the form ``T = tr(A B)`` with
symmetric positive semidefinite, doubly centered matrices A and B, and both
are calibrated against the distribution of ``tr(A_pi B)`` under a uniformly
random row/column permutation of A.  The first four moments of that
distribution are polynomial in a fixed set of matrix invariants with
universal rational coefficients (:mod:`citkit._moment_tables`, derived and
enumeration-verified in :mod:`citkit._moment_derivation`), so they can be
computed exactly without sampling a single permutation.

No single two- or three-parameter family fits the resulting law: its support
is bounded below (A and B are PSD), its body is strongly right-skewed, and
its left edge is smooth rather than spiked.  What does fit is the structural
decomposition of T itself: the diagonal terms form a linear permutation
statistic (asymptotically normal), while the off-diagonal mass behaves like
a small-dof moment-matched gamma.  The null used here is therefore the
convolution

    T  ~  kappa1 + Normal(0, v) + theta * (Gamma(k) - k)

with the gamma part matched to the exact third cumulant and the variance
split ``v = kappa2 - 3*kappa3^2 / (2*kappa4)`` chosen so the fourth cumulant
is matched as well.  When that split degenerates (the cumulants of a rank
deficient statistic can sit exactly on the pure-gamma manifold), ``v`` falls
back to the exact variance of the diagonal linear part, which is the
correct normal component in the decomposition above.  The survival function
is evaluated by Gauss-Hermite quadrature.  Cumulants that no such
convolution can match (a third cumulant that is not positive) fall back to
a gamma matched to the first two, flagged ``moment_fallback``.

Both kernel tests end in the same two calibrations from here:
:func:`analytic_null_p` on their invariants, or with ``permutations > 0``
:func:`sampled_null_p` on their permuted statistic.

The four moment tables are compiled once, at import, into a coefficient
vector, a monomial index matrix into one packed vector of invariants, and the
block count of each entry.  Every entry is evaluated with the same sequence of
float products as a walk over the table dicts would use, and each table is
summed sequentially in dict order: a pairwise sum moves the raw moments in
their last digits, so the sequential sum is what keeps the cumulants
bit-identical to the walk.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc

from ._moment_tables import T1, T2, T3, T4
from .errors import DataError

__all__ = [
    "analytic_null_p",
    "dense_invariants",
    "feature_invariants",
    "permutation_cumulants",
    "sampled_null_p",
]

# quadrature for the normal-gamma convolution; 81 nodes keeps the absolute
# CDF error far below the calibration error of the moment fit itself
_NODES, _WEIGHTS = np.polynomial.hermite_e.hermegauss(81)
_WEIGHTS = _WEIGHTS / np.sqrt(2.0 * np.pi)

_INVARIANT_NAMES = (
    "t", "d", "d3", "d4", "q", "e3", "e4", "tr3", "tr4", "m21", "m111",
    "ltr3", "l2d", "llq", "l2le", "le3", "bow", "th4", "pll", "lds",
)

# rows per block of the upper-triangle sweep in ``feature_invariants``; at
# n = 2000 and k = 100, 64 and 128 rows ran the sweep equally fast and faster
# than 256 or 512, and 64 rows halve the two block buffers
_ROW_BLOCK = 64


def dense_invariants(M, _scratch=None):
    """All invariants of a symmetric matrix needed by the moment tables.

    One matrix product is required; everything else is elementwise.  The
    five entrywise products share one n x n buffer.  ``_scratch`` may hold
    three C-contiguous n x n float64 arrays, other than ``M``, that receive
    M @ M, M * M and that shared buffer; without it they are allocated.
    """
    m2, mm, buf = _scratch or (None, None, None)
    dg = np.diagonal(M)
    M2 = np.matmul(M, M, out=m2)
    MM = np.multiply(M, M, out=mm)
    rowsq = MM.sum(axis=1)
    dg2 = dg * dg
    buf = np.multiply(MM, M, out=buf)
    e3, le3 = float(buf.sum()), float(dg @ buf.sum(axis=1))
    e4 = float(np.multiply(MM, MM, out=buf).sum())
    np.multiply(M2, M, out=buf)
    tr3, ltr3 = float(buf.sum()), float(dg @ buf.sum(axis=1))
    tr4 = float(np.multiply(M2, M2, out=buf).sum())
    th4 = float(np.multiply(MM, M2, out=buf).sum())
    return {
        "t": float(dg.sum()),
        "d": float(dg2.sum()),
        "d3": float((dg2 * dg).sum()),
        "d4": float((dg2 * dg2).sum()),
        "q": float(rowsq.sum()),
        "e3": e3,
        "e4": e4,
        "tr3": tr3,
        "tr4": tr4,
        "m21": float(dg @ rowsq),
        "m111": float(dg @ M @ dg),
        "ltr3": ltr3,
        "l2d": float(dg2 @ rowsq),
        "llq": float(dg @ MM @ dg),
        "l2le": float(dg2 @ M @ dg),
        "le3": le3,
        "bow": float(rowsq @ rowsq),
        "th4": th4,
        "pll": float(dg @ M2 @ dg),
        "lds": float(dg @ M @ rowsq),
    }


def feature_invariants(ex, _scratch=None):
    """Invariants of A = ex @ ex.T computed without materializing A.

    Everything reduces to feature-space products except the entrywise power
    sums ``e3``, ``e4``, ``th4`` and ``le3``.  Those sweep the upper triangle
    of A in blocks of ``_ROW_BLOCK`` rows: block rows lo:hi meet columns lo:n
    only, and since A is symmetric the diagonal block counts once and the part
    right of it twice.  Memory stays at two n x k buffers, ``ex @ G`` and
    one shared by the diagonals of A^2 and A^3, plus two ``_ROW_BLOCK x n``
    buffers, A's block and its entrywise square; the cube overwrites the
    block in place.  ``_scratch`` may be a C-contiguous float64 vector; when
    it holds n (k + 2 ``_ROW_BLOCK``) entries, ``ex @ G`` and the two blocks
    are written there instead of being allocated.  The result is the same
    bit for bit.
    """
    n, k = ex.shape
    exg_out = p_flat = p2_flat = None
    if _scratch is not None and _scratch.size >= n * (k + 2 * _ROW_BLOCK):
        exg_out = _scratch[:n * k].reshape(n, k)
        p_flat, p2_flat = _scratch[n * k:n * (k + 2 * _ROW_BLOCK)].reshape(2, -1)

    def block(flat, shape):
        return None if flat is None else flat[:shape[0] * shape[1]].reshape(shape)

    a = (ex * ex).sum(axis=1)            # diag(A)
    G = ex.T @ ex
    G2 = G @ G
    exa = ex.T @ a
    exa2 = ex.T @ (a * a)
    exG = np.matmul(ex, G, out=exg_out)
    buf = np.multiply(exG, ex)           # one n x k buffer for r, r3, then wa
    r = buf.sum(axis=1)                  # diag(A^2)
    np.matmul(ex, G2, out=buf)
    buf *= ex
    r3 = buf.sum(axis=1)                 # diag(A^3)
    wa = np.multiply(ex, np.sqrt(a)[:, None], out=buf)
    cross_wa = wa.T @ wa
    del buf, wa
    out = {
        "t": float(np.trace(G)),
        "d": float(a @ a),
        "d3": float((a * a) @ a),
        "d4": float((a * a) @ (a * a)),
        "q": float((G * G).sum()),
        "tr3": float((G2 * G).sum()),
        "tr4": float((G2 * G2).sum()),
        "m21": float(a @ r),
        "m111": float(exa @ exa),
        "ltr3": float(a @ r3),
        "l2d": float((a * a) @ r),
        "llq": float((cross_wa * cross_wa).sum()),
        "l2le": float(exa2 @ exa),
        "bow": float(r @ r),
        "pll": float(exa @ G @ exa),
        "lds": float(exa @ (ex.T @ r)),
    }
    e3 = e4 = th4 = le3 = 0.0
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        w = hi - lo
        P = np.matmul(ex[lo:hi], ex[lo:].T, out=block(p_flat, (w, n - lo)))  # A[lo:hi, lo:]
        P2 = np.multiply(P, P, out=block(p2_flat, (w, n - lo)))
        # row i of th4 is exG_i . sum_j A_ij^2 ex_j, the mirror counted twice
        M = P2[:, :w] @ ex[lo:hi] + 2.0 * (P2[:, w:] @ ex[hi:])
        th4 += float(np.vdot(exG[lo:hi], M))
        D = P2[:, :w]
        e4 += 2.0 * float(np.vdot(P2, P2)) - float(np.vdot(D, D))
        P *= P2                          # A^3 entrywise
        # weight columns: the whole row; a_j right of the diagonal block; 1 there
        weights = np.zeros((n - lo, 3))
        weights[:, 0] = 1.0
        weights[w:, 1] = a[hi:]
        weights[w:, 2] = 1.0
        rows, right_a, right = (P @ weights).T
        e3 += float(rows.sum() + right.sum())
        le3 += float(a[lo:hi] @ rows + right_a.sum())
        del P, P2, D                     # free this block before the next is made
    out["e3"] = e3
    out["e4"] = e4
    out["th4"] = th4
    out["le3"] = le3
    return out


# packed invariant vector: the names of A, then 1.0, then the names of B
_SLOT_A = {name: i for i, name in enumerate(_INVARIANT_NAMES)}
_ONE_SLOT = len(_INVARIANT_NAMES)
_SLOT_B = {name: _ONE_SLOT + 1 + i for i, name in enumerate(_INVARIANT_NAMES)}


def _compile(tables):
    """Monomial index arrays for a sequence of moment tables.

    Row j of ``index`` names the slots of the packed invariant vector whose
    product, times ``coeff[j]``, is the numerator of entry j: the A-side names
    first, then the B-side names, padded with the slot that holds 1.0.
    ``bounds`` delimits each table's rows.
    """
    entries = [entry for table in tables for entry in table.items()]
    width = max(len(mon_a) + len(mon_b) for (mon_a, mon_b, _), _ in entries)
    index = np.full((len(entries), width), _ONE_SLOT, dtype=np.intp)
    for row, ((mon_a, mon_b, _), _) in enumerate(entries):
        slots = [_SLOT_A[name] for name in mon_a] + [_SLOT_B[name] for name in mon_b]
        index[row, :len(slots)] = slots
    coeff = np.array([float(c) for _, c in entries])
    blocks = np.array([b for (_, _, b), _ in entries], dtype=np.intp)
    bounds = np.cumsum([0] + [len(table) for table in tables])
    return coeff, index, blocks, bounds


_COEFF, _INDEX, _BLOCKS, _BOUNDS = _compile((T1, T2, T3, T4))
_MAX_BLOCKS = int(_BLOCKS.max())


def _raw_moments(inv_a, inv_b, n):
    """E[T], E[T^2], E[T^3], E[T^4] from the compiled tables.

    Each table is summed left to right with ``cumsum``; the pairwise ``sum``
    would break bit-identity with the dict walk (see the module docstring).
    """
    if n < _MAX_BLOCKS:
        raise ValueError(f"the moment tables need n >= {_MAX_BLOCKS}, got n={n}")
    vals = np.array([inv_a[name] for name in _INVARIANT_NAMES] + [1.0]
                    + [inv_b[name] for name in _INVARIANT_NAMES])
    term = _COEFF.copy()
    for col in _INDEX.T:
        term *= vals[col]
    fall = [1.0]
    for i in range(_MAX_BLOCKS):
        fall.append(fall[-1] * (n - i))
    term /= np.array(fall)[_BLOCKS]
    return [float(np.cumsum(term[lo:hi])[-1]) for lo, hi in zip(_BOUNDS[:-1], _BOUNDS[1:])]


def permutation_cumulants(inv_a, inv_b, n):
    """Exact cumulants (k1, k2, k3, k4) of tr(A_pi B) plus the exact variance
    of its diagonal (linear) part."""
    e1, e2, e3, e4 = _raw_moments(inv_a, inv_b, n)
    k2 = e2 - e1 * e1
    k3 = e3 - 3.0 * e1 * e2 + 2.0 * e1 ** 3
    k4 = e4 - 4.0 * e1 * e3 + 6.0 * e1 * e1 * e2 - 3.0 * e1 ** 4 - 3.0 * k2 * k2
    ss_a = inv_a["d"] - inv_a["t"] ** 2 / n
    ss_b = inv_b["d"] - inv_b["t"] ** 2 / n
    v_lin = ss_a * ss_b / (n - 1)
    return e1, k2, k3, k4, v_lin


def analytic_null_p(stat, inv_a, inv_b, n):
    """Upper tail p of ``stat`` under the permutation null of tr(A_pi B), and its flags.

    ``inv_a`` and ``inv_b`` are the invariants of A and B, dense
    (:func:`dense_invariants`) or feature-space (:func:`feature_invariants`).
    The null is the normal-gamma convolution of the module docstring, matched
    to the exact cumulants, and the flags are ``()``.  When the cumulants are
    too degenerate for it (non-finite, or k2 or k3 not positive), a plain
    gamma matched to k1 and k2 is used instead, flagged
    ``("moment_fallback",)``; a k1 or k2 that is not positive raises
    ``DataError`` there.
    """
    cumulants = permutation_cumulants(inv_a, inv_b, n)
    k1, k2, k3, k4, v_lin = cumulants
    if not all(np.isfinite(c) for c in cumulants) or k2 <= 0.0 or k3 <= 0.0:
        return _gamma_upper_p(stat, k1, k2), ("moment_fallback",)
    v_norm = k2 - 1.5 * k3 * k3 / k4 if k4 > 0.0 else 0.0
    v_norm = min(max(v_norm, v_lin, 0.0), 0.999 * k2)
    v_gamma = k2 - v_norm
    skew = k3 / v_gamma ** 1.5
    shape = 4.0 / (skew * skew)
    scale = np.sqrt(v_gamma) * skew / 2.0
    shifted = stat - k1 - np.sqrt(v_norm) * _NODES
    arg = shifted / scale + shape
    tails = np.where(arg <= 0.0, 1.0, gammaincc(shape, np.maximum(arg, 1e-300)))
    return float(np.clip((_WEIGHTS * tails).sum(), 0.0, 1.0)), ()


def _gamma_upper_p(stat, mean, var):
    if not (np.isfinite(mean) and np.isfinite(var)) or mean <= 0 or var <= 0:
        raise DataError("degenerate null moments; cannot calibrate the gamma approximation")
    shape = mean * mean / var
    scale = var / mean
    if stat <= 0:
        return 1.0
    return float(gammaincc(shape, stat / scale))


def sampled_null_p(stat, permuted_stat, n, permutations, seed):
    """Sampled permutation p of ``stat``, flagged ``("permutation_null",)``.

    ``permuted_stat(perm)`` is the statistic with one side's rows permuted by
    ``perm``; ``permutations`` of them are drawn from ``default_rng(seed)``.
    p = (1 + hits) / (permutations + 1), where a hit is a permuted statistic
    at least ``stat``, so p is never below 1 / (permutations + 1).
    """
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        hits += permuted_stat(rng.permutation(n)) >= stat
    return float((1 + hits) / (permutations + 1)), ("permutation_null",)
