"""The generator tables g[n][r,i] of the minimal bimodule resolution in
the free path algebra of the cycle quiver, and the check that their right-
and left-multiplication recursions agree.

`_g_codes` builds the tables once, integer-coded: a path of length n from
vertex i is an n-bit int read from the top bit, 1 for a backward step, so
its arrows follow from i (a step from v is a(v) or abar(v-1)), and a
coefficient is an unnormalised integer pair (num, den).  Each recursion
appends or prepends one step, and its two summands end (or start) with
steps of different kinds, so they never share a path.  `g_generators` is
the decoded view {steps: Fraction}, `steps` a tuple of the algebra's arrow
monomials and () for e_i.  Every closed-form coefficient (both recursions,
the split, `resolution.differential`) is an entry of `signed_runs`, built
per start from the integer prefix products of the parameters, one
normalised Fraction per entry.  The rewriting map
down to the quotient is kept in tests/test_freepaths.py as a reference.
"""

from fractions import Fraction

from .algebra import Table, a, abar, memoised


@memoised
def signed_runs(alg):
    """{(start mod m, count): (run, -run)}, built on first read, where run
    is the product q_start q_{start+1} ... of `count` consecutive
    parameters, indices mod m, and the empty product is 1.

    Per start, the products of the first 0, 1, 2, ... parameters from
    q_start on are kept as unreduced integer pairs (num, den), extended one
    factor at a time; an entry is one normalised Fraction and its
    negative.  A negative count raises ValueError and stores nothing."""
    m, ratios = alg.m, [v.as_integer_ratio() for v in alg.q]
    prefixes = [[(1, 1)] for _ in range(m)]

    def build(run):
        start, count = run
        if count < 0:
            raise ValueError(f"a q-run has count >= 0, got count {count}")
        prefix = prefixes[start % m]
        while len(prefix) <= count:
            num, den = prefix[-1]
            qn, qd = ratios[(start + len(prefix) - 1) % m]
            prefix.append((num * qn, den * qd))
        q = Fraction(*prefix[count])
        return q, -q

    return Table(build)


def split_coefficient(alg, p, s, t, i):
    """c(p; s, t; i), the coefficient of g[p][s,i] . g[q][t,i+p-2s] in the
    split of g[p+q][s+t,i] (the Koszul diagonal K_{p+q} in K_p (x) K_q):

        prod_{u=1..t} (-1)^p (q_{i-s-u+1} ... q_{i-u+p-2s})

    a product of t signed runs of p - s parameters, from `signed_runs`."""
    runs, m, c = signed_runs(alg), alg.m, Fraction(1)
    for u in range(1, t + 1):
        c *= runs[(i - s - u + 1) % m, p - s][p % 2]
    return c


@memoised
def _g_codes(n, alg):
    """The coded table {(r, i): {code: (num, den)}} built from degree n - 1
    by the right-multiplication recursion

        g[n][r,i] = g[n-1][r,i] . a_{i+n-2r-1}
                    + (-1)^n (q_{i-r+1} ... q_{i+n-2r}) g[n-1][r-1,i] . abar_{i+n-2r}

    with missing summands zero and the signed run read from `signed_runs`."""
    m = alg.m
    if n < 0:
        raise ValueError("the generator tables start at degree 0")
    if n == 0:
        return {(0, i): {0: (1, 1)} for i in range(m)}
    prev, runs, table = _g_codes(n - 1, alg), signed_runs(alg), {}
    for i in range(m):
        for r in range(n + 1):
            entry = {2 * c: v for c, v in prev[(r, i)].items()} if r < n else {}
            if r > 0:
                qn, qd = runs[(i - r + 1) % m, n - r][n % 2].as_integer_ratio()
                entry.update({2 * c + 1: (qn * x, qd * y) for c, (x, y) in prev[(r - 1, i)].items()})
            table[(r, i)] = entry
    return table


@memoised
def g_generators(n, alg):
    """The table {(r, i): {steps: coefficient}} of `_g_codes`, decoded."""
    m, table = alg.m, {}
    step = ([a(j) for j in range(m)], [abar((j - 1) % m) for j in range(m)])
    for (r, i), entry in _g_codes(n, alg).items():
        decoded = table[(r, i)] = {}
        for code, (x, y) in entry.items():
            steps, v = [], i
            for bit in (code >> k & 1 for k in range(n - 1, -1, -1)):
                steps.append(step[bit][v])
                v = (v + 1 - 2 * bit) % m
            decoded[tuple(steps)] = Fraction(x, y)
    return table


def verify_g_recursions(n, alg):
    """True iff the left-multiplication form

        (-1)^r (q_{i-r+1} ... q_i) a_i . g[n-1][r,i+1] + (-1)^r abar_{i-1} . g[n-1][r-1,i-1]

    reproduces g[n][r,i] for every (r, i), read in place on the coded tables
    (a_i keeps a code, abar_{i-1} sets its top bit; pairs are compared by
    cross-multiplication, the signed run read from `signed_runs`); each
    (r, i) where the two forms differ is logged once."""
    if n < 1:
        raise ValueError(f"the recursions start at degree 1, got degree {n}")
    m, top, prev, ok = alg.m, 1 << (n - 1), _g_codes(n - 1, alg), True
    runs = signed_runs(alg)
    for (r, i), entry in _g_codes(n, alg).items():
        parts = []
        if r < n:
            qn, qd = runs[(i - r + 1) % m, r][r % 2].as_integer_ratio()
            parts.append((prev[(r, (i + 1) % m)], 0, qn, qd))
        if r > 0:
            parts.append((prev[(r - 1, (i - 1) % m)], top, (-1) ** r, 1))
        if len(entry) != sum(len(part) for part, *_ in parts) or not all(
            (got := entry.get(c | bit)) and got[0] * d * y == f * x * got[1]
            for part, bit, f, d in parts for c, (x, y) in part.items()
        ):
            import logging  # only a failing check logs

            ok = False
            logging.getLogger(__name__).warning("g recursion at n=%d, (r,i)=%s: the two forms differ", n, (r, i))
    return ok
