"""The generator tables g[n][r,i] of the minimal bimodule resolution in
the free path algebra of the cycle quiver, and the check that their right-
and left-multiplication recursions agree.

An entry is a plain dict {steps: coefficient}: `steps` is a path read left
to right from vertex i, the origin given by the entry's key (r, i), and ()
is e_i.  A step is the algebra's arrow monomial: a(j) for the forward
arrow j -> j+1 or abar(j) for the backward arrow j+1 -> j, with j reduced
mod m; as a tuple it equals ("a", j) or ("abar", j).  Each recursion
appends or prepends one arrow, and its two summands end (or start) with
arrows of different kinds, so they never share a path.  The rewriting map
down to the quotient is kept in tests/test_freepaths.py as a reference.
"""

import logging
from fractions import Fraction

from .algebra import a, abar, memoised

log = logging.getLogger(__name__)


def q_run(alg, start, count):
    """Product q_start q_{start+1} ... of `count` consecutive parameters,
    indices reduced mod m; the empty product is 1."""
    if count < 0:
        raise ValueError(f"a q-run has count >= 0, got count {count}")
    m, q = alg.m, alg.q
    start %= m
    run = _q_runs(start, alg)
    while len(run) <= count:
        run.append(run[-1] * q[(start + len(run) - 1) % m])
    return run[count]


@memoised
def _q_runs(start, alg):
    """The products of the first 0, 1, 2, ... parameters from q_start on,
    extended by one factor at a time by `q_run`."""
    return [Fraction(1)]


def split_coefficient(alg, p, s, t, i):
    """c(p; s, t; i), the coefficient of g[p][s,i] . g[q][t,i+p-2s] in the
    split of g[p+q][s+t,i] (the Koszul diagonal K_{p+q} in K_p (x) K_q):

        prod_{u=1..t} (-1)^p (q_{i-s-u+1} ... q_{i-u+p-2s})

    a product of t runs of p - s parameters each."""
    c = Fraction((-1) ** (p * t))
    for u in range(1, t + 1):
        c *= q_run(alg, i - s - u + 1, p - s)
    return c


@memoised
def g_generators(n, alg):
    """The full table {(r, i): g[n][r,i]} built from the degree n - 1 table
    by the right-multiplication recursion

        g[n][r,i] = g[n-1][r,i] . a_{i+n-2r-1}
                    + (-1)^n (q_{i-r+1} ... q_{i+n-2r}) g[n-1][r-1,i] . abar_{i+n-2r}

    with missing summands treated as zero and the empty q-product as 1.
    """
    m = alg.m
    if n < 0:
        raise ValueError("the generator tables start at degree 0")
    if n == 0:
        return {(0, i): {(): Fraction(1)} for i in range(m)}
    prev = g_generators(n - 1, alg)
    table = {}
    for i in range(m):
        for r in range(n + 1):
            entry = {}
            if r < n:
                step = a((i + n - 2 * r - 1) % m)
                entry.update({p + (step,): c for p, c in prev[(r, i)].items()})
            if r > 0:
                step = abar((i + n - 2 * r) % m)
                coeff = q_run(alg, i - r + 1, n - r) * (-1) ** n
                entry.update({p + (step,): coeff * c for p, c in prev[(r - 1, i)].items()})
            table[(r, i)] = entry
    return table


def g_left_form(n, alg):
    """The left-multiplication form of the same table,

        (-1)^r (q_{i-r+1} ... q_i) a_i . g[n-1][r,i+1]
        + (-1)^r abar_{i-1} . g[n-1][r-1,i-1]

    used to cross-check the defining recursion.
    """
    m = alg.m
    prev = g_generators(n - 1, alg)
    table = {}
    for i in range(m):
        for r in range(n + 1):
            entry = {}
            sign = (-1) ** r
            if r < n:
                coeff = q_run(alg, i - r + 1, r) * sign
                entry.update({(a(i),) + p: coeff * c for p, c in prev[(r, (i + 1) % m)].items()})
            if r > 0:
                j = (i - 1) % m
                entry.update({(abar(j),) + p: sign * c for p, c in prev[(r - 1, j)].items()})
            table[(r, i)] = entry
    return table


def verify_g_recursions(n, alg):
    """True iff the left-multiplication form reproduces g[n][r,i] for every
    (r, i), as equal entries; each (r, i) where the two forms
    differ is logged once."""
    table = g_generators(n, alg)
    left = g_left_form(n, alg)
    ok = True
    for key in table:
        if table[key] != left[key]:
            ok = False
            log.warning("g recursion at n=%d, (r,i)=%s: the two forms differ", n, key)
    return ok
