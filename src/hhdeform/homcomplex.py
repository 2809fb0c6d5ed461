"""The cochain complex Hom(P^n, Algebra) and its cohomology dimensions.

A bimodule map P^n -> Algebra is determined by its value on each
generator, and the value at Generator(n, r, i) must lie in the corner
subspace e_i . Algebra . e_{(i+n-2r) mod m}.  That gives the canonical
basis used everywhere here: generators in their fixed order, corner
monomials in theirs.  It is kept per degree as a table of (generator,
corner) blocks, built from the generator rows at the r whose corner is
not empty; the basis, the block starts and the dimension are read from
it, and the coboundaries never expand the basis itself.

Precomposition with a bimodule map g: P^N -> P^n is one matrix,
`pullback_matrix(g)`, built in one walk over the terms of g: the monomial
term (c, left, tgt, right) of the image of a generator gen of P^N feeds
only the corner block of tgt, and lands in the corner block of gen.  So
it walks the per-algebra stencil of its (left, right) pair: the nonzero
products left . mono0 . right over the corner monomials mono0, as offsets
into the two blocks, with their coefficients.  The walk reads g, through
`g.terms`, only at the generators of P^N whose corner block is not empty,
which by cyclic symmetry are whole rows (N, r).  For the differential
that read is where the closed-form images are built and checked, one row
(N, r) at a time, so from m = 4 on most images are never built (at
m = 16, degrees 1..39, 2,544 of 13,104), and most generators neither
(4,192 of 13,120 with degree 0).  The coboundary d^n is the pullback
along the differential d^{n+1}; cup products are pullbacks along
chain-map liftings.

`kernel_image_table`, the table that `compute` and `sweep` read, drops
each coboundary, differential and block table once no later degree reads
it: after degree n it keeps d^n and the blocks of degrees n and n + 1.
The ring and `verify`'s checks reread the coboundaries and keep them
all.  The paper's dimension tables live in the expected_* functions as
comparison data, never as a computation path: dim Hom(P^n, .), dim ker d^n
and dim HH^n are closed forms, and dim im d^{n-1} is rank-nullity on
d^{n-1}, hom minus kernel at degree n - 1, as the computed table has it.
"""

from . import linalg
from .algebra import Table, memoised
# generators is not called here; bench/tests/test_bench.py reads the
# by-name import homcomplex.generators
from .resolution import _collect, differential, generator_rows, generators  # noqa: F401


def _require_degree(n):
    if n < 0:
        raise ValueError(f"Hom(P^n, Algebra) is defined for n >= 0, got degree {n}")


@memoised
def _blocks(n, alg):
    """(blocks, starts, dimension) for Hom(P^n, Algebra).  blocks holds the
    corner blocks as (generator, corner monomials) pairs, generators in
    `generators` order; starts maps each block's generator to the index
    of its first map in hom_space_basis(n) (a generator with an empty
    corner has none); dimension is the total.  By cyclic symmetry the
    corner e_i . Algebra . e_{i+n-2r} is empty for every vertex i or for
    none, so only the rows (`generator_rows`) at the r whose corner at
    vertex 0 is not empty are built."""
    _require_degree(n)
    m, corner = alg.m, alg.corner_basis
    table = generator_rows(n, m)
    rows = [(table[r], k) for r in range(n + 1) if corner(0, (k := n - 2 * r) % m)]
    blocks = [(row[i], corner(i, (i + k) % m)) for i in range(m) for row, k in rows]
    starts, dimension = {}, 0
    for gen, monos in blocks:
        starts[gen] = dimension
        dimension += len(monos)
    return blocks, starts, dimension


@memoised
def hom_space_basis(n, alg):
    """Ordered basis of Hom(P^n, Algebra): (generator, corner monomial),
    the blocks of `_blocks` expanded in order."""
    return [(gen, mono) for gen, corner in _blocks(n, alg)[0] for mono in corner]


def hom_dimension(n, alg):
    return _blocks(n, alg)[2]


@memoised
def _pullback_stencils(alg):
    """{(left, right): its `_pullback_stencil`}, built on first read."""
    return Table(lambda pair: _pullback_stencil(*pair, alg))


def _pullback_stencil(left, right, alg):
    """The nonzero products left . mono0 . right, for mono0 in the corner
    e_{terminus of left} . Algebra . e_{origin of right}, as (column offset
    of mono0, row offset of the product in the corner e_{origin of left} .
    Algebra . e_{terminus of right}, coefficient); the coefficient is None
    when it is exactly 1."""
    product = alg.product
    (start, mid), (mid_end, end) = alg.endpoints[left], alg.endpoints[right]
    outer = alg.corner_basis(start, end)
    stencil = []
    for col, mono0 in enumerate(alg.corner_basis(mid, mid_end)):
        inner = product(left, mono0)
        if inner is None:
            continue
        value = product(inner[0], right)
        if value is not None:
            coeff = inner[1] * value[1]
            stencil.append((col, outer.index(value[0]), None if coeff == 1 else coeff))
    return stencil


def pullback_matrix(g):
    """Matrix of f |-> f o g for a bimodule map g: P^N -> P^n, columns over
    the basis of Hom(P^n, .), rows over the basis of Hom(P^N, .).

    One walk over the terms of g: a term (c, left, tgt, right) of the
    image of gen sends the basis map (tgt, mono0) to c . left . mono0 . right
    at gen.  It writes c times each coefficient of the stencil of
    (left, right) at its offsets from the corner blocks of tgt and gen; a
    unit coefficient writes c itself, into the row dicts as `add_to_entry`
    would, each stencil built once per algebra.  Only the generators of
    P^N that have a corner block are read: no other image has a row to
    land in.
    """
    alg = g.alg
    _, cols, width = _blocks(g.target_degree, alg)
    _, starts, height = _blocks(g.source_degree, alg)
    mat = linalg.Matrix(height, width)
    rows = mat._rows
    stencils = _pullback_stencils(alg)
    for gen, start in starts.items():
        for c, left, tgt, right in g.terms(gen):
            col = cols.get(tgt)
            if col is None:
                continue
            for dc, dr, coeff in stencils[left, right]:
                row = rows[start + dr]
                cc = col + dc
                v = c if coeff is None else c * coeff
                old = row.get(cc)
                if old is None:
                    row[cc] = v
                else:
                    _collect(row, cc, old + v)
    return mat


@memoised
def coboundary_matrix(n, alg):
    """The coboundary d^n: Hom(P^n, .) -> Hom(P^{n+1}, .), the pullback
    along the differential d^{n+1}."""
    return pullback_matrix(differential(n + 1, alg))


def kernel_image_dims(n, alg):
    """(dim ker d^n, dim im d^{n-1}) by exact rank computation.

    It reads coboundary_matrix(n) and then, for n >= 1,
    coboundary_matrix(n - 1), memoised and keeping their pivots: a table
    of degrees 0..N makes N + 1 eliminations, not 2N + 1.
    """
    _require_degree(n)
    dn = coboundary_matrix(n, alg)
    ker = dn.cols - linalg.rank(dn)
    im = linalg.rank(coboundary_matrix(n - 1, alg)) if n >= 1 else 0
    return ker, im


# bound once, at import: bench/tracer.py rebinds coboundary_matrix and
# differential to wrappers that carry no forget attribute
_forget_coboundary, _forget_differential, _forget_blocks = (
    coboundary_matrix.forget, differential.forget, _blocks.forget
)


def kernel_image_table(top, alg):
    """[(dim Hom(P^n, .), dim ker d^n, dim im d^{n-1}) for n = 0..top].

    Each degree reads `kernel_image_dims` and then `hom_dimension`, then
    drops the memo entries that no later degree reads: d^{n-1}, whose two
    ranks have now been read; the differential d^{n+1}, which feeds only
    d^n; and the blocks of degree n - 1.
    """
    table = []
    for n in range(top + 1):
        ker, im = kernel_image_dims(n, alg)
        table.append((hom_dimension(n, alg), ker, im))
        _forget_coboundary(n - 1, alg)
        _forget_differential(n + 1, alg)
        _forget_blocks(n - 1, alg)
    return table


def cohomology_dimension(n, alg, allow_non_generic=False):
    """dim HH^n = dim ker d^n - dim im d^{n-1}."""
    alg.require_generic(allow_non_generic)
    ker, im = kernel_image_dims(n, alg)
    return ker - im


# --- closed-form dimension tables, used as comparison data ------------------


def expected_hom_dimension(n, m):
    """Closed form for dim Hom(P^n, Algebra), p = n // m: (4p + 4)m when
    n mod m is m - 1, else (4p + 2)m; at m = 1 and m = 2 that is 4(n + 1)."""
    p, t = divmod(n, m)
    return (4 * p + 4) * m if t == m - 1 else (4 * p + 2) * m


def expected_kernel_dim(n, m):
    """Closed form for dim ker d^n in the generic regime, m >= 2: m + 1
    for n <= 1, else (2p + 1)m with p = n // m."""
    if m < 2:
        raise ValueError("no closed-form kernel table for m = 1")
    if n <= 1:
        return m + 1
    p = n // m
    return (2 * p + 1) * m


def expected_image_dim(n, m):
    """dim im d^{n-1} in the generic regime, m >= 2, by rank-nullity on
    d^{n-1}: the two closed forms above at degree n - 1; 0 at n = 0."""
    if m < 2:
        raise ValueError("no closed-form image table for m = 1")
    if n == 0:
        return 0
    return expected_hom_dimension(n - 1, m) - expected_kernel_dim(n - 1, m)


def expected_cohomology_dim(n, m):
    """dim HH^n in the generic regime: m+1, 2, 1, then 0; total m+4."""
    if n == 0:
        return m + 1
    if n == 1:
        return 2
    if n == 2:
        return 1
    return 0
