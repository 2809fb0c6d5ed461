"""The minimal projective bimodule resolution (P*, d*).

P^n is a direct sum of m(n+1) bimodule summands indexed by Generator(n, r, i)
with 0 <= r <= n and 0 <= i < m; the summand attached to (n, r, i) is
(Algebra . e_i) tensor (e_{i+n-2r} . Algebra), where the offset k = n - 2r is
kept unreduced for bookkeeping and only reduced mod m when a vertex is
actually needed.

A BimoduleMap stores, per source generator, a list of terms
(left element, target generator, right element); the differential and the
chain-map liftings both live in this form.  `underlying_matrix` flattens a
map to exact rational linear algebra on the 16m(n+1)-dimensional underlying
vector spaces, which is how kernels, images and exactness are computed.
It and `compose` walk the terms once and read each product of factors
from the structure constants (`Algebra.products`) as a short list of
(monomial, coefficient) pairs, building no intermediate AlgebraElement.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import AlgebraElement, a, abar, e, memoised
from .freepaths import q_run


@dataclass(frozen=True)
class Generator:
    """Index of one projective summand of P^n."""

    n: int
    r: int
    i: int

    def __post_init__(self):
        if not 0 <= self.r <= self.n:
            raise ValueError(f"r must be in 0..n, got {self.r} at degree {self.n}")

    @property
    def offset(self):
        """k = n - 2r, unreduced."""
        return self.n - 2 * self.r

    @property
    def origin(self):
        return self.i

    def terminus(self, m):
        return (self.i + self.offset) % m

    def __repr__(self):
        return f"G({self.n};{self.r},{self.i})"


def generators(n, m):
    """All m(n+1) generators of P^n, i outer, r inner, both ascending.

    This ordering fixes every matrix layout in the package.
    """
    return [Generator(n, r, i) for i in range(m) for r in range(n + 1)]


class BimoduleMap:
    """A bimodule map P^{source_degree} -> P^{target_degree} given by its
    values on generators: a list of (left, target, right) terms each."""

    def __init__(self, alg, source_degree, target_degree, assignments):
        self.alg = alg
        self.source_degree = source_degree
        self.target_degree = target_degree
        self.assignments = {}
        m = alg.m
        for gen, terms in assignments.items():
            kept = []
            for left, target, right in terms:
                if left.is_zero() or right.is_zero():
                    continue
                for mono in left.coeffs:
                    if mono.origin(m) != gen.i % m or mono.terminus(m) != target.i % m:
                        raise ValueError(
                            f"left factor {mono} of {gen}->{target} is not in "
                            f"e_{gen.i} . Algebra . e_{target.i}"
                        )
                for mono in right.coeffs:
                    if (
                        mono.origin(m) != target.terminus(m)
                        or mono.terminus(m) != gen.terminus(m)
                    ):
                        raise ValueError(
                            f"right factor {mono} of {gen}->{target} is not in "
                            f"e_{target.terminus(m)} . Algebra . e_{gen.terminus(m)}"
                        )
                kept.append((left, target, right))
            if kept:
                self.assignments[gen] = kept

    def terms(self, gen):
        return self.assignments.get(gen, [])

    def is_zero(self):
        """Exact zero test, via canonical expansion of every value."""
        for gen in self.assignments:
            if any(v for v in self.value_coords(gen)):
                return False
        return True

    def value_coords(self, gen):
        """Coordinates of the image of `gen` over the basis of P^{target_degree}."""
        terms = [(l.coeffs.items(), t, r.coeffs.items()) for l, t, r in self.terms(gen)]
        return term_coords(terms, self.target_degree, self.alg)

    def __repr__(self):
        return (
            f"BimoduleMap(P^{self.source_degree} -> P^{self.target_degree}, "
            f"{len(self.assignments)} nonzero generators)"
        )


def zero_map(alg, source_degree, target_degree):
    return BimoduleMap(alg, source_degree, target_degree, {})


def identity_map(n, alg):
    m = alg.m
    assignments = {
        gen: [
            (
                AlgebraElement.of(e(gen.i)),
                gen,
                AlgebraElement.of(e(gen.terminus(m))),
            )
        ]
        for gen in generators(n, m)
    }
    return BimoduleMap(alg, n, n, assignments)


@memoised
def differential(n, alg):
    """The differential P^n -> P^{n-1}, n >= 1, straight from the closed
    form: two-term images at r = 0 and r = n, four terms otherwise."""
    if n < 1:
        raise ValueError("the differential is defined for n >= 1")
    m = alg.m
    sign_n = (-1) ** n
    one = Fraction(1)
    assignments = {}
    for gen in generators(n, m):
        r, i = gen.r, gen.i
        terms = []
        if r == 0:
            #  e_i (x)_0 a_{i+n-1}  +  (-1)^n a_i (x)_0 e_{i+n}
            t1 = Generator(n - 1, 0, i)
            terms.append(
                (
                    AlgebraElement.of(e(i)),
                    t1,
                    AlgebraElement.of(a((i + n - 1) % m)),
                )
            )
            t2 = Generator(n - 1, 0, (i + 1) % m)
            terms.append(
                (
                    AlgebraElement.of(a(i), sign_n),
                    t2,
                    AlgebraElement.of(e(t2.terminus(m))),
                )
            )
        elif r == n:
            #  (-1)^n e_i (x)_{n-1} abar_{i-n}  +  abar_{i-1} (x)_{n-1} e_{i-n}
            t1 = Generator(n - 1, n - 1, i)
            terms.append(
                (
                    AlgebraElement.of(e(i), sign_n),
                    t1,
                    AlgebraElement.of(abar((i - n) % m)),
                )
            )
            t2 = Generator(n - 1, n - 1, (i - 1) % m)
            terms.append(
                (
                    AlgebraElement.of(abar((i - 1) % m)),
                    t2,
                    AlgebraElement.of(e(t2.terminus(m))),
                )
            )
        else:
            sign_r = (-1) ** r
            t1 = Generator(n - 1, r, i)
            terms.append(
                (
                    AlgebraElement.of(e(i)),
                    t1,
                    AlgebraElement.of(a((i + n - 2 * r - 1) % m)),
                )
            )
            t2 = Generator(n - 1, r - 1, i)
            terms.append(
                (
                    AlgebraElement.of(e(i), sign_n * q_run(alg, i - r + 1, n - r)),
                    t2,
                    AlgebraElement.of(abar((i + n - 2 * r) % m)),
                )
            )
            t3 = Generator(n - 1, r, (i + 1) % m)
            terms.append(
                (
                    AlgebraElement.of(a(i), sign_n * sign_r * q_run(alg, i - r + 1, r)),
                    t3,
                    AlgebraElement.of(e(t3.terminus(m)), one),
                )
            )
            t4 = Generator(n - 1, r - 1, (i - 1) % m)
            terms.append(
                (
                    AlgebraElement.of(abar((i - 1) % m), sign_n * sign_r),
                    t4,
                    AlgebraElement.of(e(t4.terminus(m))),
                )
            )
        assignments[gen] = terms
    return BimoduleMap(alg, n, n - 1, assignments)


def compose(f, g):
    """f after g: if g maps P^c -> P^a and f maps P^a -> P^b, the result
    maps P^c -> P^b.  The products l1 . l2 and r2 . r1 of each term of g
    and each term of f at its target are read from the structure constants;
    like terms are collected monomial by monomial so the zero test is exact."""
    if f.source_degree != g.target_degree:
        raise ValueError(
            f"degree mismatch: composing P^{g.source_degree}->P^{g.target_degree} "
            f"with P^{f.source_degree}->P^{f.target_degree}"
        )
    alg = f.alg
    assignments = {}
    for gen, terms in g.assignments.items():
        acc = {}
        for l1, mid, r1 in terms:
            for l2, target, r2 in f.terms(mid):
                left = alg.products(l1.coeffs.items(), l2.coeffs.items())
                right = alg.products(r2.coeffs.items(), r1.coeffs.items())
                for ml, cl in left:
                    for mr, cr in right:
                        key = (target, ml, mr)
                        s = acc.get(key, Fraction(0)) + cl * cr
                        if s:
                            acc[key] = s
                        else:
                            acc.pop(key, None)
        if acc:
            assignments[gen] = [
                (AlgebraElement.of(ml, c), target, AlgebraElement.of(mr))
                for (target, ml, mr), c in acc.items()
            ]
    return BimoduleMap(alg, g.source_degree, f.target_degree, assignments)


def augment(f):
    """Compose the multiplication map P^0 -> Algebra with f: P^n -> P^0;
    returns {generator: algebra element}."""
    if f.target_degree != 0:
        raise ValueError("augmentation applies to maps into P^0")
    alg = f.alg
    out = {}
    for gen, terms in f.assignments.items():
        acc = alg.zero()
        for left, _target, right in terms:
            acc = acc + alg.multiply(left, right)
        out[gen] = acc
    return out


@memoised
def _p_basis(n, alg):
    """Ordered basis of the underlying vector space of P^n: per generator,
    (left monomial into the origin) x (right monomial out of the terminus)."""
    m = alg.m
    basis = []
    for gen in generators(n, m):
        for ml in alg.monomials_into(gen.i):
            for mr in alg.monomials_from(gen.terminus(m)):
                basis.append((gen, ml, mr))
    return basis


@memoised
def _p_basis_index(n, alg):
    return {item: k for k, item in enumerate(_p_basis(n, alg))}


def p_dimension(alg, n):
    """16 m (n+1): each of the m(n+1) summands contributes 4 x 4."""
    return len(_p_basis(n, alg))


def term_coords(terms, n, alg):
    """Coordinates over the underlying basis of P^n of a list of
    (left, target, right) terms whose factors are sequences of
    (monomial, coefficient) pairs."""
    index = _p_basis_index(n, alg)
    coords = [Fraction(0)] * len(index)
    for left, target, right in terms:
        for ml, cl in left:
            for mr, cr in right:
                coords[index[(target, ml, mr)]] += cl * cr
    return coords


def underlying_matrix(f):
    """The matrix of f on underlying vector spaces; rows are indexed by the
    basis of the target P, columns by the basis of the source P.

    One walk over the terms of f: for the term (left, target, right) of gen,
    bl . left for the four monomials bl into gen's origin and right . br for
    the four out of its terminus are read from the structure constants once
    each, and fill the 16 columns (gen, bl, br)."""
    alg = f.alg
    target_index = _p_basis_index(f.target_degree, alg)
    rows = [{} for _ in target_index]
    col = 0
    for gen in generators(f.source_degree, alg.m):
        into = [((bl, linalg.F1),) for bl in alg.monomials_into(gen.i)]
        out_of = [((br, linalg.F1),) for br in alg.monomials_from(gen.terminus(alg.m))]
        for left, target, right in f.terms(gen):
            new_lefts = [alg.products(bl, left.coeffs.items()) for bl in into]
            new_rights = [alg.products(right.coeffs.items(), br) for br in out_of]
            c = col
            for new_left in new_lefts:
                for new_right in new_rights:
                    for ml, cl in new_left:
                        for mr, cr in new_right:
                            row = rows[target_index[(target, ml, mr)]]
                            s = row.get(c, linalg.F0) + cl * cr
                            if s:
                                row[c] = s
                            else:
                                del row[c]
                    c += 1
        col += len(into) * len(out_of)
    return linalg.Matrix(len(rows), col, rows)


@memoised
def augmentation_matrix(alg):
    """The multiplication map P^0 -> Algebra on underlying vector spaces."""
    source = _p_basis(0, alg)
    mat = linalg.Matrix(len(alg.basis), len(source))
    for col, (_gen, bl, br) in enumerate(source):
        prod = alg.monomial_multiply(bl, br)
        for mono, c in prod.coeffs.items():
            mat.add_to_entry(alg.basis_index[mono], col, c)
    return mat


def check_complex(N, alg, differentials=None, via="both"):
    """True iff d^n o d^{n+1} = 0 for 1 <= n < N and the augmentation
    composed with d^1 vanishes.

    `differentials` may override individual degrees (used for fault
    injection in the tests).  `via` selects the check path: "maps"
    composes BimoduleMaps, "matrices" multiplies underlying matrices,
    "both" cross-checks that the two agree.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    diffs = {}
    for n in range(1, N + 1):
        if differentials and n in differentials:
            diffs[n] = differentials[n]
        else:
            diffs[n] = differential(n, alg)
    aug = augment(diffs[1])
    if any(not v.is_zero() for v in aug.values()):
        return False
    for n in range(1, N):
        ok_maps = ok_mats = None
        if via in ("maps", "both"):
            ok_maps = compose(diffs[n], diffs[n + 1]).is_zero()
        if via in ("matrices", "both"):
            prod = underlying_matrix(diffs[n]).matmul(underlying_matrix(diffs[n + 1]))
            ok_mats = prod.is_zero()
        if via == "both" and ok_maps != ok_mats:
            raise AssertionError(
                f"map-level and matrix-level complex checks disagree at n={n}"
            )
        if not (ok_maps if ok_maps is not None else ok_mats):
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
