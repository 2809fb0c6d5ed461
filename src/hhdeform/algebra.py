"""The deformed cycle algebra and its 4m-element monomial basis.

The quiver is a cycle on m vertices with a forward arrow a_i (i -> i+1)
and a backward arrow abar_i (i+1 -> i) for each i.  The algebra is the
path algebra modulo the ideal generated by

    a_i a_{i+1},    abar_{i-1} abar_{i-2},    q_i a_i abar_i - abar_{i-1} a_{i-1}

for a tuple q of m nonzero rationals.  A monomial basis is given by the
vertices e_i, the arrows a_i and abar_i, and the loops z_i = a_i abar_i,
and the relations leave four families of nonzero products,

    e_{o(x)} . x = x,   x . e_{t(x)} = x,   a_i . abar_i = z_i,   abar_i . a_i = q_{i+1} z_{i+1}

(o, t the origin and terminus); every other product is zero.  `Algebra`
stores them once, as rows keyed by either factor: x . y is
by_left[x][y] = by_right[y][x] = (monomial, coefficient), which
`Algebra.product` reads, or None.  A combination of monomials is a plain
dict {BasisMonomial: Fraction} with no zero entries.

Every table in the package that is filled the first time a key is read
is a `Table`, a dict that builds a missing entry and keeps it; `alg.cache`,
the per-algebra memo of `memoised`, is one.

The product of the deformation parameters, zeta, governs everything: the
finiteness theorems hold exactly when zeta is not a root of unity, which
over the rationals means zeta not in {1, -1}.
"""

from collections import namedtuple
from fractions import Fraction

from .linalg import F1, exact

VERTEX = "e"
ARROW = "a"
BAR = "abar"
LOOP = "z"


class NonGenericParameters(Exception):
    """Raised when a theorem-level operation is asked to run with zeta a
    root of unity and no explicit override."""


class BasisMonomial(namedtuple("BasisMonomial", "kind index")):
    """One of e_i, a_i, abar_i, z_i.  Vertex indices live in 0..m-1.

    A tuple (kind, index), so it hashes and compares as one; tuple order
    is not the canonical basis order, so sort monomials by
    `Algebra.basis_index`."""

    __slots__ = ()

    def origin(self, m):
        if self.kind == BAR:
            return (self.index + 1) % m
        return self.index

    def terminus(self, m):
        if self.kind == ARROW:
            return (self.index + 1) % m
        return self.index

    def __repr__(self):
        return f"{self.kind}{self.index}"


def e(i):
    return BasisMonomial(VERTEX, i)


def a(i):
    return BasisMonomial(ARROW, i)


def abar(i):
    return BasisMonomial(BAR, i)


def z(i):
    return BasisMonomial(LOOP, i)


class AlgebraSpec(namedtuple("AlgebraSpec", "m q")):
    """Input data: vertex count m and deformation parameters q."""

    __slots__ = ()

    def __new__(cls, m, q):
        q = tuple(exact(v) for v in q)
        # bool is an int subclass, and True would build an algebra with m True
        if type(m) is not int:
            raise ValueError(f"m must be an int, got {m!r}")
        if m < 1:
            raise ValueError("m must be at least 1")
        if len(q) != m:
            raise ValueError("q must have exactly m entries")
        if any(v == 0 for v in q):
            raise ValueError("zero deformation parameter")
        return super().__new__(cls, m, q)

    @property
    def zeta(self):
        prod = Fraction(1)
        for v in self.q:
            prod *= v
        return prod

    @property
    def generic(self):
        """zeta not a root of unity; over the rationals that is zeta not in {1,-1}."""
        return self.zeta not in (Fraction(1), Fraction(-1))


_EMPTY_CORNER = []


class Algebra:
    """Structure constants of the quotient algebra on its 4m-monomial basis."""

    def __init__(self, spec):
        self.spec = spec
        self.m = m = spec.m
        self.q = spec.q
        self.zeta = spec.zeta
        self.generic = spec.generic
        E, A, B, Z = ([kind(i) for i in range(m)] for kind in (e, a, abar, z))
        self.basis = E + A + B + Z
        self.basis_index = {mono: k for k, mono in enumerate(self.basis)}
        # (origin, terminus) of each basis monomial
        self.endpoints = {mono: (mono.origin(self.m), mono.terminus(self.m)) for mono in self.basis}
        # the monomials into and out of each vertex and the nonempty corners
        # (at most 3m of the m^2), in basis order; `_none_at` adds an empty
        # corner when first read and refuses a vertex that is not an int in
        # 0..m-1
        self._into, self._from = Table(self._none_at), Table(self._none_at)
        self._corners = Table(lambda ends: self._none_at(*ends))
        # the rows of structure constants, one each way per basis monomial;
        # `_not_a_factor` refuses any other monomial
        self.by_left, self.by_right = Table(self._not_a_factor), Table(self._not_a_factor)
        for mono in self.basis:
            origin, terminus = self.endpoints[mono]
            self._into.setdefault(terminus, []).append(mono)
            self._from.setdefault(origin, []).append(mono)
            self._corners.setdefault((origin, terminus), []).append(mono)
            self.by_left[mono], self.by_right[mono] = {}, {}
        # the four families of the module docstring, vertex by vertex
        for i in range(m):
            j = (i + 1) % m
            families = [(E[i], x, x, F1) for x in self._from[i]]
            families += [(x, E[i], x, F1) for x in self._into[i]]
            families += [(A[i], B[i], Z[i], F1), (B[i], A[i], Z[j], self.q[j])]
            for x, y, mono, c in families:
                self.by_left[x][y] = self.by_right[y][x] = (mono, c)
        # the memo of `memoised`
        self.cache = Table(lambda key: key[0](*key[1], self))

    def require_generic(self, allow_non_generic=False):
        if not self.generic and not allow_non_generic:
            raise NonGenericParameters(
                f"zeta = {self.zeta} is a root of unity; pass allow_non_generic to proceed"
            )

    def product(self, x, y):
        """The product of basis monomials x . y as (monomial, coefficient),
        or None when it is zero; a factor outside the basis raises
        ValueError."""
        prod = self.by_left[x].get(y)
        if prod is None:
            self.by_right[y]  # a y outside the basis raises ValueError
        return prod

    def multiply(self, x, y):
        """The product of two combinations {BasisMonomial: coefficient}, as
        a dict with no zero entries.  Every coefficient goes through
        `linalg.exact` first, so a float raises TypeError even when the
        product vanishes, and then every monomial must be in the basis,
        else ValueError."""
        x = [(mono, exact(c)) for mono, c in x.items()]
        y = [(mono, exact(c)) for mono, c in y.items()]
        for my, _ in y:
            self.by_right[my]  # a monomial outside the basis raises ValueError
        out = {}
        for mx, cx in x:
            row = self.by_left[mx]
            for my, cy in y:
                prod = row.get(my)
                if prod is not None:
                    out[prod[0]] = out.get(prod[0], 0) + cx * cy * prod[1]
        return {mono: c for mono, c in out.items() if c}

    def monomial_multiply(self, mx, my):
        """The product of basis monomials as {monomial: coefficient}, or {}
        when it is zero; a factor outside the basis raises ValueError."""
        prod = self.product(mx, my)
        return {} if prod is None else {prod[0]: prod[1]}

    def corner_basis(self, i, j):
        """Monomial basis of e_i . Algebra . e_j, for vertices i, j in 0..m-1.

        Endpoints are taken mod m, so m = 1 and m = 2 get their enlarged
        corners from the same table, in the canonical basis order.  Every
        empty corner is one shared empty list, which no caller may extend.
        A vertex that is not an int in 0..m-1 raises ValueError.
        """
        return self._corners[i, j]

    def _none_at(self, *vertices):
        """The empty list of monomials at a corner or a vertex, for integer
        vertices in 0..m-1; any other vertex raises ValueError."""
        for v in vertices:
            if not isinstance(v, int) or not 0 <= v < self.m:
                raise ValueError(f"vertex {v} is not in 0..{self.m - 1} at m = {self.m}")
        return _EMPTY_CORNER

    def _not_a_factor(self, mono):
        """Refuse a product factor that is not one of the 4m basis monomials."""
        raise ValueError(f"{mono!r} is not a basis monomial at m = {self.m}")

    def monomials_into(self, v):
        """Basis of Algebra . e_v (monomials with terminus v), v in 0..m-1."""
        return self._into[v]

    def monomials_from(self, v):
        """Basis of e_v . Algebra (monomials with origin v), v in 0..m-1."""
        return self._from[v]

    def __repr__(self):
        return f"Algebra(m={self.m}, q={self.q}, zeta={self.zeta})"


class Table(dict):
    """A dict that builds a missing entry as build(key) when the key is read,
    stores it and returns it; a build that raises stores nothing."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def memoised(fn):
    """Memoise fn(*args, alg) in the cache of the Algebra instance `alg`,
    at the key (fn, args without alg): a repeated call returns the very
    object built by the first one.

    The returned function has one attribute, `forget(*args, alg)`, which
    drops that one entry (if it is there), so the next call builds anew.
    A caller binds `forget` once, at import time: bench/tracer.py rebinds
    the public names to wrappers that carry no attributes.
    """

    def cached(*args):
        return args[-1].cache[fn, args[:-1]]

    def forget(*args):
        args[-1].cache.pop((fn, args[:-1]), None)

    cached.__name__ = fn.__name__
    cached.__doc__ = fn.__doc__
    cached.forget = forget
    return cached


def build_algebra(spec):
    return Algebra(spec)


def algebra(m, q):
    """Convenience constructor from raw m and a q sequence."""
    return Algebra(AlgebraSpec(m, tuple(q)))
