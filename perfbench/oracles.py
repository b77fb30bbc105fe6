"""Reference computations that share no code with citkit.

* ``stable_cdf`` / ``stable_quantile``: the symmetric alpha-stable law
  S(alpha, 0, gamma, 0), by Gil-Pelaez inversion of its characteristic
  function exp(-|gamma u|^alpha) with ``scipy.integrate.quad`` and a
  bracketed root search.  citkit uses an origin series, a Chebyshev band and
  a tail series instead, so agreement is an independent check.
* ``stable_combined_p``: the E-CIT combination rule written from its
  definition (mean of stable quantiles, read off the law of the mean).
* ``d_separated``: d-separation in a DAG by the reachability ("Bayes ball")
  traversal; citkit's own oracle moralizes the ancestral graph instead.
"""

from __future__ import annotations

import math

from scipy import integrate, optimize, special

# exp(-t) < 1e-18 beyond t = 42: the integrand is cut where the
# characteristic function has vanished to double precision
_PHI_CUT = 42.0


def stable_cdf(x: float, alpha: float, gamma: float = 1.0) -> float:
    """CDF of S(alpha, 0, gamma, 0) at ``x``, for 0 < alpha <= 2.

    Gil-Pelaez: F(x) = 1/2 + (1/pi) int_0^inf sin(u x) phi(u) / u du.  The
    1/u part is integrated in closed form (the sine integral Si); the rest,
    sin(u x) * expm1(-(gamma u)^alpha) / u, is regular at 0 and goes to
    QUADPACK's sine-weighted rule on [0, u_max].
    """
    if x == 0.0:
        return 0.5
    ax = abs(x)
    u_max = _PHI_CUT ** (1.0 / alpha) / gamma
    si = float(special.sici(ax * u_max)[0])

    def g(u):
        return math.expm1(-(gamma * u) ** alpha) / u if u > 0.0 else 0.0

    # full_output keeps QUADPACK's round-off warning off stderr.  It fires in
    # the far tail, where F < ~1e-11 and the absolute error grows to ~1e-12,
    # so quantiles of p below ~1e-11 are rough; the body is good to ~1e-16
    body = integrate.quad(g, 0.0, u_max, weight="sin", wvar=ax, limit=500,
                          epsabs=1e-15, epsrel=1e-13, full_output=1)[0]
    upper = 0.5 + (si + body) / math.pi
    return upper if x > 0.0 else 1.0 - upper


def stable_quantile(p: float, alpha: float, gamma: float = 1.0) -> float:
    """Inverse of :func:`stable_cdf` for 0 < p < 1, by Brent's method on a
    bracket grown by doubling."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    q = max(p, 1.0 - p)
    hi = gamma
    while stable_cdf(hi, alpha, gamma) < q:
        hi *= 2.0
    root = optimize.brentq(lambda t: stable_cdf(t, alpha, gamma) - q, 0.0, hi,
                           xtol=1e-14, rtol=1e-13, maxiter=200)
    return root if p > 0.5 else -root


def stable_combined_p(pvals, alpha: float) -> float:
    """E-CIT combined p-value of already-clamped p-values under S(alpha, 0, 1, 0).

    The mean of K i.i.d. S(alpha, 0, 1, 0) draws is S(alpha, 0, K^(1/alpha - 1), 0),
    so the combined p-value is that law's CDF at the mean quantile.
    """
    k = len(pvals)
    mean = math.fsum(stable_quantile(p, alpha) for p in pvals) / k
    return stable_cdf(mean, alpha, k ** (1.0 / alpha - 1.0))


def d_separated(parents: dict, x: int, y: int, given) -> bool:
    """True when ``x`` and ``y`` are d-separated by the set ``given``.

    ``parents`` maps every node to the collection of its parents.  A trail
    is followed through (node, direction) states: "up" means the node was
    reached from one of its children, "down" from one of its parents.  A
    collider passes the trail only when it or one of its descendants is in
    ``given``.
    """
    given = set(given)
    children = {v: set() for v in parents}
    for v, pa in parents.items():
        for p in pa:
            children[p].add(v)
    opens_collider = set()
    stack = list(given)
    while stack:
        v = stack.pop()
        if v not in opens_collider:
            opens_collider.add(v)
            stack.extend(parents[v])
    seen = set()
    stack = [(x, "up")]
    while stack:
        v, direction = stack.pop()
        if (v, direction) in seen:
            continue
        seen.add((v, direction))
        if v == y and v not in given:
            return False
        if direction == "up" and v not in given:
            stack.extend((p, "up") for p in parents[v])
            stack.extend((c, "down") for c in children[v])
        elif direction == "down":
            if v not in given:
                stack.extend((c, "down") for c in children[v])
            if v in opens_collider:
                stack.extend((p, "up") for p in parents[v])
    return True
