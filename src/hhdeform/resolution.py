"""The minimal projective bimodule resolution (P*, d*).

P^n is a direct sum of m(n+1) bimodule summands indexed by Generator(n, r, i)
with 0 <= r <= n and 0 <= i < m; the summand attached to (n, r, i) is
(Algebra . e_i) tensor (e_{i+n-2r} . Algebra), where the offset k = n - 2r is
kept unreduced for bookkeeping and only reduced mod m when a vertex is
actually needed.

A BimoduleMap stores, per source generator, a list of monomial terms
(c, left, target, right): the rational c times left (x) right in the
summand of `target`, with left and right basis monomials.  The
differential, composites and the chain-map liftings all live in this
form, and a value is its terms: `is_zero` and the augmentation check of
`check_complex` sum the coefficients of like terms directly.
The generators are (n, r, i) tuples, built one row (n, r) of m at a time
when first read (`generator_rows`) and kept at module level, shared by
every algebra: per-algebra rows slowed the compute-m16 benchmark's
`wall_s` by 9-11% (higher in 9 of 10 and 10 of 10 pairs on two runs),
as its warm passes reuse the 4,192 rows each op reads.
`generators` assembles a degree from the same row objects on each call.
Every term is checked (degrees, corners from (n, r, i), exact
coefficient) before anything reads it, by one checker: a map built from
a dict checks all of them when it is made, and the differential builds
and checks its images one row (n, r) at a time, one closed form for every
r (coefficients from `freepaths.signed_runs`), when the first generator
of the row is read, reading its targets from rows r and r - 1 of
P^{n-1}, so a consumer that reads only some rows
(`homcomplex.pullback_matrix`) never builds the rest, nor their
generators.
`underlying_matrix` flattens a map to exact rational linear algebra on the
16m(n+1)-dimensional underlying vector spaces, which is how kernels,
images and exactness are computed.  P^n has one layout: the summand of
Generator(n, r, i) holds the 16 coordinates from 16 (i (n+1) + r), the
k-th monomial into its origin (x) the j-th out of its terminus at 4 k + j,
and `augmentation_matrix` follows it too.  Every summand is 4 x 4, so
`underlying_matrix` walks each term over the stencil of its (left, right)
pair, built once per algebra: the nonzero products bl . left (x) right .
br as offsets into the source and target blocks, grouped by coefficient.
A map holds only a weak reference to its flattened matrix: a repeated
call returns the same object while a caller still holds it, and nothing
keeps it alive after that, so `check_complex` builds each d^n once
without keeping all of them in memory.
`compose` reads each product of two monomials as (monomial, numerator,
denominator) from per-algebra tables, and each coefficient's integers
from its Fraction slots (see `linalg`), and sums like terms as integer
pairs.  Neither multiplies a Fraction by a structure constant of exactly
1 or adds a first value to zero.
"""

import weakref
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .algebra import Table, memoised
from .freepaths import signed_runs


class Generator(namedtuple("Generator", "n r i")):
    """Index of one projective summand of P^n: a tuple (n, r, i)."""

    __slots__ = ()

    def __new__(cls, n, r, i):
        if not 0 <= r <= n:
            raise ValueError(f"r must be in 0..n, got {r} at degree {n}")
        return super().__new__(cls, n, r, i)

    @property
    def offset(self):
        """k = n - 2r, unreduced."""
        return self.n - 2 * self.r

    def terminus(self, m):
        return (self.i + self.offset) % m

    def __repr__(self):
        return f"G({self.n};{self.r},{self.i})"


def _rows_of(degree):
    """The rows of P^n at m vertices, degree = (n, m); see `generator_rows`."""
    n, m = degree
    return Table(lambda r: tuple(Generator(n, r, i) for i in range(m)))


_generators = Table(_rows_of)  # (n, m): the rows of P^n at m vertices


def generator_rows(n, m):
    """The rows of P^n at m vertices: rows[r] is the tuple of
    Generator(n, r, i), i ascending, built the first time it is read and
    kept; r outside 0..n raises Generator's ValueError."""
    return _generators[n, m]


def generators(n, m):
    """All m(n+1) generators of P^n, i outer, r inner, both ascending, as
    a tuple of the very objects of its rows (`generator_rows`).

    This ordering fixes every matrix layout in the package.
    """
    table = _generators[n, m]
    rows = [table[r] for r in range(n + 1)]
    return tuple(row[i] for i in range(m) for row in rows)


def _corner(gen, n, m):
    """(origin, terminus) of the summand of gen in P^n, read from (n, r, i);
    ValueError unless gen is a Generator of degree n with 0 <= i < m."""
    if not isinstance(gen, Generator) or gen.n != n or not 0 <= gen.i < m:
        raise ValueError(f"{gen} is not a generator of P^{n} at m = {m}")
    i = gen.i
    return i, (i + n - 2 * gen.r) % m


class BimoduleMap:
    """A bimodule map P^{source_degree} -> P^{target_degree} given by its
    values on generators: a list of (c, left, target, right) terms each,
    with c a Fraction (other exact rationals are converted, anything else
    raises TypeError) and left, right basis monomials.  Keys and targets
    must be generators of the declared degrees and each factor must lie in
    its corner: a generator's corner is computed from (n, r, i), a
    monomial's read from the algebra's endpoint table.  Anything else
    raises ValueError.

    A map built from a dict checks every term here and keeps the dict's
    order.  The differential is built by `_closed_form` instead, one row
    (n, r) at a time: the first `terms` read of a generator of the source
    degree builds the m images of its row and gives them the same check,
    storing nothing if one fails, and `assignments` reads every row, in
    `generators` order."""

    def __init__(self, alg, source_degree, target_degree, assignments):
        self.alg = alg
        self.source_degree = source_degree
        self.target_degree = target_degree
        self._build = None
        self._flat = None  # weak reference to the last underlying_matrix
        self._terms = self._checked(assignments.items())

    @classmethod
    def _closed_form(cls, alg, source_degree, target_degree, build):
        """The map whose images of row r are the (generator, terms) pairs
        of build(r), built and checked when one of them is first read."""
        f = cls(alg, source_degree, target_degree, {})
        f._build = build
        return f

    def _checked(self, images):
        """{gen: its nonzero terms} for the (gen, terms) pairs of images, in
        their order, once each term has passed the degree, corner
        (`_corner`'s, inlined for targets) and exactness checks, the last
        before the zero test; a generator with no nonzero term is left out."""
        m = self.alg.m
        ends = self.alg.endpoints
        source, n = self.source_degree, self.target_degree
        checked = {}
        for gen, terms in images:
            start, end = _corner(gen, source, m)
            kept = []
            for term in terms:
                c, left, target, right = term
                if type(c) is not Fraction:
                    term = (c := linalg.exact(c), left, target, right)
                if not c._numerator:
                    continue
                if not isinstance(target, Generator) or target.n != n or not 0 <= target.i < m:
                    raise ValueError(f"{target} is not a generator of P^{n} at m = {m}")
                origin, terminus = target.i, (target.i + n - 2 * target.r) % m
                if ends.get(left) != (start, origin):
                    raise ValueError(
                        f"left factor {left} of {gen}->{target} is not in "
                        f"e_{start} . Algebra . e_{origin}"
                    )
                if ends.get(right) != (terminus, end):
                    raise ValueError(
                        f"right factor {right} of {gen}->{target} is not in "
                        f"e_{terminus} . Algebra . e_{end}"
                    )
                kept.append(term)
            if kept:
                checked[gen] = kept
        return checked

    @property
    def assignments(self):
        """{generator: its nonzero terms}, for the generators whose image
        is not zero.  The first access reads every image of a closed-form
        map, which from then on is a map like any other."""
        if self._build is not None:
            terms = self.terms
            self._terms = {
                gen: got for gen in generators(self.source_degree, self.alg.m) if (got := terms(gen))
            }
            self._build = None
        return self._terms

    def terms(self, gen):
        """The terms of the image of gen, [] when it is zero.  Anything but
        a generator of the source degree raises `_corner`'s ValueError, on
        a hit as on a miss: a stored key is one, so a hit needs only the
        type test (an equal plain tuple hits too)."""
        got = self._terms.get(gen)
        if got is not None and type(gen) is Generator:
            return got
        _corner(gen, self.source_degree, self.alg.m)
        if got is None and self._build is not None:
            self._terms.update(self._checked(self._build(gen.r)))
            got = self._terms.setdefault(gen, [])
        return [] if got is None else got

    def is_zero(self):
        """Exact zero test: a value is zero exactly when the coefficients
        of each (left, target, right) among its terms sum to zero."""
        for terms in self.assignments.values():
            sums = {}
            for c, left, target, right in terms:
                key = (left, target, right)
                sums[key] = sums.get(key, 0) + c
            if any(sums.values()):
                return False
        return True

    def __repr__(self):
        return (
            f"BimoduleMap(P^{self.source_degree} -> P^{self.target_degree}, "
            f"{len(self.assignments)} nonzero generators)"
        )


@memoised
def differential(n, alg):
    """The differential P^n -> P^{n-1}, n >= 1: the right recursion of
    `freepaths` on the right face plus (-1)^n times the left one on the left
    face.  With k = i + n - 2r, s = i - r + 1 (both mod m) and [s, c] the
    run q_s ... q_{s+c-1}, signed from `signed_runs`, Generator(n, r, i) goes
    to, in this order,
        e_i (x) G(n-1,r,i) (x) a_{k-1}                     if r < n
        (-1)^n [s, n-r] e_i (x) G(n-1,r-1,i) (x) abar_k    if r > 0
        (-1)^(n+r) [s, r] a_i (x) G(n-1,r,i+1) (x) e_k     if r < n
        (-1)^(n+r) abar_{i-1} (x) G(n-1,r-1,i-1) (x) e_k   if r > 0
    built and checked one row (n, r) at a time, when the first of its m
    generators is read."""
    if n < 1:
        raise ValueError("the differential is defined for n >= 1")
    m = alg.m
    # e_i, a_i and abar_i, in the order of alg.basis
    E, A, B = alg.basis[:m], alg.basis[m : 2 * m], alg.basis[2 * m : 3 * m]
    units = (linalg.F1, -linalg.F1)  # (-1)^e is units[e % 2]
    runs = signed_runs(alg)
    sources, targets = generator_rows(n, m), generator_rows(n - 1, m)

    def row(r):
        """The images of Generator(n, r, i), i ascending, as (gen, terms)."""
        # rows r and r - 1 of P^{n-1}; an index -1 below is m - 1
        same = targets[r] if r < n else None
        lower = targets[r - 1] if r > 0 else None
        flip = (n + r) % 2
        images = []
        for i, gen in enumerate(sources[r]):
            k, s = (i + n - 2 * r) % m, (i - r + 1) % m
            terms = []
            if same:
                terms.append((units[0], E[i], same[i], A[k - 1]))
            if lower:
                terms.append((runs[s, n - r][n % 2], E[i], lower[i], B[k]))
            if same:
                terms.append((runs[s, r][flip], A[i], same[(i + 1) % m], E[k]))
            if lower:
                terms.append((units[flip], B[i - 1], lower[i - 1], E[k]))
            images.append((gen, terms))
        return images

    return BimoduleMap._closed_form(alg, n, n - 1, row)


@memoised
def _ratio_products(alg):
    """x . y as (monomial, numerator, denominator), per nonzero product, as
    by_left[x][y] and by_right[y][x]; every basis monomial has both rows."""
    by_left, by_right = {x: {} for x in alg.basis}, {y: {} for y in alg.basis}
    for x, row in by_left.items():
        for y in alg.monomials_from(x.terminus(alg.m)):
            if p := alg.product(x, y):
                row[y] = by_right[y][x] = (p[0], *p[1].as_integer_ratio())
    return by_left, by_right


def compose(f, g):
    """f after g: if g maps P^c -> P^a and f maps P^a -> P^b, the result
    maps P^c -> P^b.  The products l1 . l2 and r2 . r1 of each term of g
    and each term of f at its target are read from `_ratio_products`.
    Like terms are collected exactly, as unreduced (numerator, denominator)
    pairs of integers: a term whose sum reaches zero is dropped at once, so
    a later contribution puts it last, and a Fraction is built only for
    each term that remains.  Maps over different algebras raise ValueError."""
    if f.source_degree != g.target_degree:
        raise ValueError(
            f"degree mismatch: composing P^{g.source_degree}->P^{g.target_degree} "
            f"with P^{f.source_degree}->P^{f.target_degree}"
        )
    if f.alg.spec != g.alg.spec:
        raise ValueError(f"cannot compose maps over different algebras: {f.alg} after {g.alg}")
    by_left, by_right = _ratio_products(f.alg)
    f_terms = f.terms
    assignments = {}
    for gen, terms in g.assignments.items():
        acc = {}
        get = acc.get
        for c1, l1, mid, r1 in terms:
            n1, d1 = c1._numerator, c1._denominator
            left_of, right_of = by_left[l1].get, by_right[r1].get
            for c2, l2, target, r2 in f_terms(mid):
                left, right = left_of(l2), right_of(r2)
                if left is None or right is None:
                    continue
                ml, ln, ld = left
                mr, rn, rd = right
                n, d = n1 * c2._numerator * ln * rn, d1 * c2._denominator * ld * rd
                key = (ml, target, mr)
                old = get(key)
                if old is not None:
                    on, od = old
                    n, d = (on + n, d) if od == d else (on * d + n * od, od * d)
                    if not n:
                        del acc[key]
                        continue
                acc[key] = (n, d)
        assignments[gen] = [
            (Fraction(n, d), ml, target, mr) for (ml, target, mr), (n, d) in acc.items()
        ]
    return BimoduleMap(f.alg, g.source_degree, f.target_degree, assignments)


@memoised
def _stencils(alg):
    """{(left, right): its `_stencil`}, built on first read."""
    return Table(lambda pair: _stencil(*pair, alg))


def _stencil(left, right, alg):
    """The nonzero products bl . left (x) right . br, for bl into the origin
    of left and br out of the terminus of right, as (column offset, row
    offset) pairs within the 4 x 4 blocks of the source and target
    summands, in a list of (coefficient, pairs) groups; the coefficient 1
    is None.  No two products share a row offset."""
    m = alg.m
    lefts = alg.monomials_into(left.terminus(m))
    rights = alg.monomials_from(right.origin(m))
    out_of = alg.monomials_from(right.terminus(m))
    groups = {}
    for k, bl in enumerate(alg.monomials_into(left.origin(m))):
        for j, br in enumerate(out_of):
            new_left, new_right = alg.product(bl, left), alg.product(right, br)
            if new_left is not None and new_right is not None:
                coeff = new_left[1] * new_right[1]
                row = 4 * lefts.index(new_left[0]) + rights.index(new_right[0])
                groups.setdefault(None if coeff == 1 else coeff, []).append((4 * k + j, row))
    return list(groups.items())


def _collect(acc, key, s):
    """Store the sum s at key, or drop the key when s is zero."""
    if s:
        acc[key] = s
    else:
        del acc[key]


def underlying_matrix(f):
    """The matrix of f on underlying vector spaces; rows are indexed by the
    basis of the target P, columns by the basis of the source P.

    The summand of Generator(n, r, i) holds the 16 rows or columns from
    16 (i (n+1) + r).  The term (c, left, target, right) of gen writes c
    times each coefficient group of the stencil of (left, right) at the
    group's offsets from the blocks of target and gen, one product per
    group (the unit group writes c itself); the first write to an entry
    stores its value, and each row's keys come in per-entry order.

    The map keeps a weak reference to the result: while a caller holds
    it, a call on the same map returns that very object, and nothing else
    keeps it alive.  Callers must not write into it."""
    held = f._flat and f._flat()
    if held is not None:
        return held
    alg = f.alg
    m, n = alg.m, f.target_degree
    rows = [{} for _ in range(16 * m * (n + 1))]
    stencils = _stencils(alg)
    col = 0
    for gen in generators(f.source_degree, m):
        for c, left, target, right in f.terms(gen):
            base = 16 * (target.i * (n + 1) + target.r)
            for coeff, offsets in stencils[left, right]:
                v = c if coeff is None else c * coeff
                for dc, dr in offsets:
                    row = rows[base + dr]
                    cc = col + dc
                    old = row.get(cc)
                    if old is None:
                        row[cc] = v
                    else:
                        _collect(row, cc, old + v)
        col += 16
    mat = linalg.Matrix(len(rows), col, rows)
    f._flat = weakref.ref(mat)
    return mat


@memoised
def augmentation_matrix(alg):
    """The multiplication map P^0 -> Algebra on underlying vector spaces,
    bl (x) br -> bl . br.  Its columns follow `underlying_matrix`: vertex
    i holds the 16 from 16 i, bl the k-th of `monomials_into(i)` and br
    the j-th of `monomials_from(i)` at 16 i + 4 k + j."""
    mat = linalg.Matrix(len(alg.basis), 16 * alg.m)
    col = 0
    for i in range(alg.m):
        for bl in alg.monomials_into(i):
            for br in alg.monomials_from(i):
                prod = alg.product(bl, br)
                if prod is not None:
                    mat.add_to_entry(alg.basis_index[prod[0]], col, prod[1])
                col += 1
    return mat


def check_complex(N, alg):
    """True iff d^n o d^{n+1} = 0 for 1 <= n < N and the multiplication
    map kills the image of every generator of P^1: the products l . r of
    its terms c (l (x) r), times c, sum to zero.

    Each d^n o d^{n+1} is checked twice, by composing the maps and by
    multiplying their underlying matrices, and the two must agree.  Both
    sum exactly in integers (see `compose` and `linalg.Matrix.matmul`), so
    a product that cancels builds no Fraction.  `right` is held into the
    next step, so `underlying_matrix` returns it there as the left factor
    without a rebuild.  Both calls stay, since the benchmark's exact-output
    guard digests the sequence of their results.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    diffs = {n: differential(n, alg) for n in range(1, N + 1)}
    product = alg.product
    for terms in diffs[1].assignments.values():
        sums = {}
        for c, left, _target, right in terms:
            if (prod := product(left, right)) is not None:
                sums[prod[0]] = sums.get(prod[0], 0) + c * prod[1]
        if any(sums.values()):
            return False
    for n in range(1, N):
        ok_maps = compose(diffs[n], diffs[n + 1]).is_zero()
        left = underlying_matrix(diffs[n])
        right = underlying_matrix(diffs[n + 1])
        prod = left.matmul(right)
        if ok_maps != prod.is_zero():
            raise AssertionError(
                f"map-level and matrix-level complex checks disagree at n={n}"
            )
        if not ok_maps:
            return False
    return True


def verify_exactness(N, alg):
    """Exactness of the resolution through degree N - 1 by exact ranks.

    Returns (all_ok, rows) where rows lists, per degree n, the kernel
    dimension of d^n (the augmentation at n = 0) and the rank of d^{n+1};
    exactness at that spot means the two are equal.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    mats = {0: augmentation_matrix(alg)}
    for n in range(1, N + 1):
        mats[n] = underlying_matrix(differential(n, alg))
    ranks = {n: linalg.rank(mats[n]) for n in mats}
    rows = []
    all_ok = True
    for n in range(N):
        kernel_dim = mats[n].cols - ranks[n]
        image_dim = ranks[n + 1]
        ok = kernel_dim == image_dim
        all_ok = all_ok and ok
        rows.append({"degree": n, "kernel_dim": kernel_dim, "image_dim": image_dim, "ok": ok})
    return all_ok, rows
