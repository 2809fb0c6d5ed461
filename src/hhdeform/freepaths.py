"""Formal paths in the free path algebra of the cycle quiver.

This module keeps everything *before* the relations are imposed: the
recursive generator families g[n][r,i] live here, as do the two recursion
identities relating right- and left-multiplication forms.  The quotient
never feeds back into this module; the rewriting map down to it is kept
in tests/test_freepaths.py as an independent reference.

Paths are written left to right.  A step is ("a", j) for the forward
arrow j -> j+1 or ("abar", j) for the backward arrow j+1 -> j; indices
are stored reduced mod m.
"""

import logging
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ARROW, BAR, AlgebraElement, memoised

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FreePath:
    origin: int
    steps: tuple  # of (direction, index) pairs

    def terminus(self, m):
        v = self.origin
        for kind, idx in self.steps:
            v = (idx + 1) % m if kind == ARROW else idx
        return v

    def is_composable(self, m):
        v = self.origin
        for kind, idx in self.steps:
            start = idx if kind == ARROW else (idx + 1) % m
            if v != start:
                return False
            v = (idx + 1) % m if kind == ARROW else idx
        return True

    def __len__(self):
        return len(self.steps)

    def sort_key(self):
        return (len(self.steps), self.origin, self.steps)

    def __repr__(self):
        if not self.steps:
            return f"e{self.origin}"
        return "".join(
            (f"a{i}" if kind == ARROW else f"A{i}") for kind, i in self.steps
        )


def trivial_path(i):
    return FreePath(i, ())


def arrow_path(i, m):
    return FreePath(i % m, ((ARROW, i % m),))


def bar_path(i, m):
    """The backward arrow indexed i, from vertex i+1 to vertex i."""
    return FreePath((i + 1) % m, ((BAR, i % m),))


def free_multiply(x, y, m):
    """Concatenation product; endpoint-mismatched pairs contribute zero."""
    out = {}
    for px, cx in x.coeffs.items():
        tx = px.terminus(m)
        for py, cy in y.coeffs.items():
            if py.origin != tx:
                continue
            p = FreePath(px.origin, px.steps + py.steps)
            s = out.get(p, Fraction(0)) + cx * cy
            if s:
                out[p] = s
            else:
                out.pop(p, None)
    res = AlgebraElement()
    res.coeffs = out
    return res


def q_run(alg, start, count):
    """Product q_start q_{start+1} ... of `count` consecutive parameters,
    indices reduced mod m; the empty product is 1."""
    return _q_run(start % alg.m, count, alg)


@memoised
def _q_run(start, count, alg):
    prod = Fraction(1)
    for j in range(count):
        prod *= alg.q[(start + j) % alg.m]
    return prod


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
        return {(0, i): AlgebraElement.of(trivial_path(i)) for i in range(m)}
    table = g_generators(n - 1, alg)
    new = {}
    for i in range(m):
        for r in range(n + 1):
            acc = AlgebraElement()
            prev = table.get((r, i))
            if prev is not None and r <= n - 1:
                step = AlgebraElement.of(arrow_path(i + n - 2 * r - 1, m))
                acc = acc + free_multiply(prev, step, m)
            prev2 = table.get((r - 1, i))
            if prev2 is not None:
                coeff = q_run(alg, i - r + 1, n - r) * (-1) ** n
                step = AlgebraElement.of(bar_path(i + n - 2 * r, m))
                acc = acc + free_multiply(prev2, step, m).scale(coeff)
            new[(r, i)] = acc
    return new


def g_left_form(n, alg):
    """The left-multiplication form of the same table,

        (-1)^r (q_{i-r+1} ... q_i) a_i . g[n-1][r,i+1]
        + (-1)^r abar_{i-1} . g[n-1][r-1,i-1]

    used to cross-check the defining recursion.
    """
    m = alg.m
    table_prev = g_generators(n - 1, alg)
    out = {}
    for i in range(m):
        for r in range(n + 1):
            acc = AlgebraElement()
            prev = table_prev.get((r, (i + 1) % m))
            if prev is not None and r <= n - 1:
                coeff = q_run(alg, i - r + 1, r) * (-1) ** r
                acc = acc + free_multiply(
                    AlgebraElement.of(arrow_path(i, m)), prev, m
                ).scale(coeff)
            prev2 = table_prev.get((r - 1, (i - 1) % m))
            if prev2 is not None:
                acc = acc + free_multiply(
                    AlgebraElement.of(bar_path(i - 1, m)), prev2, m
                ).scale((-1) ** r)
            out[(r, i)] = acc
    return out


def verify_g_recursions(n, alg):
    """True iff the left-multiplication form reproduces g[n][r,i] for every
    (r, i), as literal equality of free elements; each (r, i) where the
    two forms differ is logged."""
    table = g_generators(n, alg)
    left = g_left_form(n, alg)
    ok = True
    for key in table:
        if table[key] != left[key]:
            ok = False
            log.warning("g recursion at n=%d, (r,i)=%s: the two forms differ", n, key)
    return ok
