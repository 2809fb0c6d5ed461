"""The deformed cycle algebra and its 4m-element monomial basis.

The quiver is a cycle on m vertices with a forward arrow a_i (i -> i+1)
and a backward arrow abar_i (i+1 -> i) for each i.  The algebra is the
path algebra modulo the ideal generated by

    a_i a_{i+1},    abar_{i-1} abar_{i-2},    q_i a_i abar_i - abar_{i-1} a_{i-1}

for a tuple q of m nonzero rationals.  A monomial basis is given by the
vertices e_i, the arrows a_i and abar_i, and the loops z_i = a_i abar_i;
the third relation rewrites abar_{i-1} a_{i-1} as q_i z_i.  So the
product of two basis monomials is one scaled monomial or zero, and
`Algebra.product` reads it from the structure-constant table as a pair
(monomial, coefficient) or None; every assembly loop in the package calls
it once per product of monomials.  A combination of monomials is a plain
dict {BasisMonomial: Fraction} with no zero entries.

Every table in the package that is filled the first time a key is read
is a `Table`, a dict that builds a missing entry and keeps it; `alg.cache`,
the per-algebra memo of `memoised`, is one.

The product of the deformation parameters, zeta, governs everything: the
finiteness theorems hold exactly when zeta is not a root of unity, which
over the rationals means zeta not in {1, -1}.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .linalg import exact

VERTEX = "e"
ARROW = "a"
BAR = "abar"
LOOP = "z"

_KIND_ORDER = {VERTEX: 0, ARROW: 1, BAR: 2, LOOP: 3}


class NonGenericParameters(Exception):
    """Raised when a theorem-level operation is asked to run with zeta a
    root of unity and no explicit override."""


class BasisMonomial(namedtuple("BasisMonomial", "kind index")):
    """One of e_i, a_i, abar_i, z_i.  Vertex indices live in 0..m-1.

    A tuple (kind, index), so it hashes and compares as one; tuple order
    is not the canonical basis order, so sort monomials by `sort_key`."""

    __slots__ = ()

    def origin(self, m):
        if self.kind == BAR:
            return (self.index + 1) % m
        return self.index

    def terminus(self, m):
        if self.kind == ARROW:
            return (self.index + 1) % m
        return self.index

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.index)

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


@dataclass(frozen=True)
class AlgebraSpec:
    """Input data: vertex count m and deformation parameters q."""

    m: int
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(exact(v) for v in self.q))
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if len(self.q) != self.m:
            raise ValueError("q must have exactly m entries")
        if any(v == 0 for v in self.q):
            raise ValueError("zero deformation parameter")

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
        self.m = spec.m
        self.q = spec.q
        self.zeta = spec.zeta
        self.generic = spec.generic
        self.basis = (
            [e(i) for i in range(self.m)]
            + [a(i) for i in range(self.m)]
            + [abar(i) for i in range(self.m)]
            + [z(i) for i in range(self.m)]
        )
        self.basis_index = {mono: k for k, mono in enumerate(self.basis)}
        # (origin, terminus) of each basis monomial
        self.endpoints = {mono: (mono.origin(self.m), mono.terminus(self.m)) for mono in self.basis}
        self._into = {v: [mono for mono in self.basis if mono.terminus(self.m) == v] for v in range(self.m)}
        self._from = {v: [mono for mono in self.basis if mono.origin(self.m) == v] for v in range(self.m)}
        # the nonzero products, over composable pairs only: y runs over the
        # monomials out of the terminus of x in basis order, so the entries
        # come in the order of a walk over all pairs
        self._table = {}
        for x in self.basis:
            for y in self._from[self.endpoints[x][1]]:
                p = self._monomial_product(x, y)
                if p is not None:
                    self._table[(x, y)] = p
        # the nonempty corners (at most 3m of the m^2) in canonical basis
        # order; an empty one is added by `_no_corner` when first read
        self._corners = Table(self._no_corner)
        for mono in self.basis:
            self._corners.setdefault(self.endpoints[mono], []).append(mono)
        # the memo of `memoised`
        self.cache = Table(lambda key: key[0](*key[1], self))

    def require_generic(self, allow_non_generic=False):
        if not self.generic and not allow_non_generic:
            raise NonGenericParameters(
                f"zeta = {self.zeta} is a root of unity; pass allow_non_generic to proceed"
            )

    def _monomial_product(self, x, y):
        """Product of two basis monomials as (mono, coeff), or None if zero."""
        m = self.m
        if x.terminus(m) != y.origin(m):
            return None
        if x.kind == VERTEX:
            return y, Fraction(1)
        if y.kind == VERTEX:
            return x, Fraction(1)
        # socle kills the radical on both sides
        if x.kind == LOOP or y.kind == LOOP:
            return None
        if x.kind == ARROW and y.kind == BAR:
            # a_i abar_i = z_i (composability forces the indices to agree)
            return z(x.index), Fraction(1)
        if x.kind == BAR and y.kind == ARROW:
            # abar_j a_j = q_{j+1} z_{j+1}
            j1 = (x.index + 1) % m
            return z(j1), self.q[j1]
        # a_i a_{i+1} and abar_i abar_{i-1} are relations
        return None

    def product(self, x, y):
        """The product of basis monomials x . y as (monomial, coefficient),
        or None when it is zero."""
        return self._table.get((x, y))

    def multiply(self, x, y):
        """The product of two combinations {BasisMonomial: coefficient}, as
        a dict with no zero entries.  Every coefficient goes through
        `linalg.exact` first, so a float raises TypeError even when the
        product vanishes."""
        x = [(mono, exact(c)) for mono, c in x.items()]
        y = [(mono, exact(c)) for mono, c in y.items()]
        out = {}
        for mx, cx in x:
            for my, cy in y:
                prod = self._table.get((mx, my))
                if prod is not None:
                    out[prod[0]] = out.get(prod[0], 0) + cx * cy * prod[1]
        return {mono: c for mono, c in out.items() if c}

    def monomial_multiply(self, mx, my):
        """The product of basis monomials as {monomial: coefficient}, or {}
        when it is zero."""
        prod = self.product(mx, my)
        return {} if prod is None else {prod[0]: prod[1]}

    def corner_basis(self, i, j):
        """Monomial basis of e_i . Algebra . e_j, for vertices i, j in 0..m-1.

        Endpoints are taken mod m, so m = 1 and m = 2 get their enlarged
        corners from the same table, in the canonical basis order.  Every
        empty corner is one shared empty list, which no caller may extend.
        A vertex outside 0..m-1 raises ValueError.
        """
        return self._corners[i, j]

    def _no_corner(self, ends):
        """The empty corner at a pair of vertices in 0..m-1."""
        for v in ends:
            if not 0 <= v < self.m:
                raise ValueError(f"vertex {v} is not in 0..{self.m - 1} at m = {self.m}")
        return _EMPTY_CORNER

    def monomials_into(self, v):
        """Basis of Algebra . e_v (monomials with terminus v)."""
        return self._into[v]

    def monomials_from(self, v):
        """Basis of e_v . Algebra (monomials with origin v)."""
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
