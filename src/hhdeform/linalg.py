"""Exact sparse linear algebra over the rationals.

Every entry is a `fractions.Fraction`; no floating point is used anywhere
in the package, and a float entry, even 0.0, raises TypeError (`exact`).
`Matrix.matmul` sums each entry as an unreduced integer (numerator,
denominator) pair and builds a Fraction only for an entry it stores.  It
and `_echelon` read the `_numerator` and `_denominator` slots, since the
public accessors are Python-level calls on 3.10 to 3.13.
Matrices reach tens of thousands of rows (the bar coboundary at m = 1,
n = 7 is 26244 x 8748), and every result is canonical:

* `rank` and `pivot_columns` come from a row echelon form, found by
  forward elimination on integer rows that visits each pivot column's
  rows only and builds no Fraction.  Its pivot columns, those of the
  reduced form whatever the pivoting order, are found once per matrix and
  kept on it: a `Matrix` is not written after it is first eliminated.
* `rref` divides each echelon row by its leading entry, then makes one
  back-substitution pass in Fractions; the reduced row echelon form is
  unique, and `kernel_basis` and `solve` read it.
* `kernel_basis` returns the reduced-echelon basis of the right kernel,
  one vector per free column, ordered by free column ascending.
* `solve` returns the particular solution with all free variables set to
  zero, or raises `InconsistentSystem`.

Rows are stored as ``{column: Fraction}`` dicts internally; the matrices
produced by the resolution are extremely sparse and a flat dense array
makes even rank computations at desk scale unreasonably slow.
"""

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

F0 = Fraction(0)
F1 = Fraction(1)


def exact(v):
    """v as a Fraction; a float or anything else that is not an exact
    rational raises TypeError instead of being silently made exact."""
    if not isinstance(v, Rational):
        raise TypeError(f"{v!r} is not an exact rational")
    return Fraction(v)


class InconsistentSystem(Exception):
    """Raised by `solve` when b is not in the column space of a."""


class Matrix:
    """A rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "_rows", "_pivots", "__weakref__")

    def __init__(self, rows, cols, entries=None):
        """A zero matrix, or the list `entries` of its `rows` row dicts
        {column: Fraction}, kept as given; dense rows go to `from_rows`."""
        self.rows = rows
        self.cols = cols
        if entries is None:
            entries = [{} for _ in range(rows)]
        elif not isinstance(entries, list) or len(entries) != rows or (
            rows and not isinstance(entries[0], dict)
        ):
            raise ValueError(f"entries must be a list of {rows} row dicts")
        self._rows = entries
        self._pivots = None  # pivot_columns, once found

    @classmethod
    def from_rows(cls, rows_of_scalars):
        rows = len(rows_of_scalars)
        cols = len(rows_of_scalars[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(rows_of_scalars):
            if len(row) != cols:
                raise ValueError(f"row {r} has {len(row)} entries, the first has {cols}")
            m._rows[r] = {c: x for c, v in enumerate(row) if (x := exact(v))}
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m._rows[i][i] = F1
        return m

    def add_to_entry(self, r, c, v):
        """Add v to entry (r, c); v goes through `exact` unless it is a
        Fraction.  A first write stores v itself; a sum that reaches zero is
        removed, so a later write to that entry puts it last in its row."""
        if type(v) is not Fraction:
            v = exact(v)
        self._pivots = None
        row = self._rows[r]
        old = row.get(c)
        if old is None:
            if v:
                row[c] = v
        else:
            s = old + v
            if s:
                row[c] = s
            else:
                del row[c]

    def row(self, r):
        return [self._rows[r].get(c, F0) for c in range(self.cols)]

    def to_lists(self):
        return [self.row(r) for r in range(self.rows)]

    def is_zero(self):
        return all(not row for row in self._rows)

    def nnz(self):
        return sum(len(row) for row in self._rows)

    def transpose(self):
        t = Matrix(self.cols, self.rows)
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                t._rows[c][r] = v
        return t

    def matmul(self, other):
        """self @ other, exploiting sparsity; empty rows of self are skipped.

        Each entry is summed as an unreduced integer (numerator, denominator)
        pair read from the Fraction slots, two terms over the lcm of their
        denominators, so none grows past the product of the factors' common
        denominators.  A sum that reaches zero keeps its place until the row
        is done: a row's entries are in first-touch order, a Fraction is built
        only for a nonzero one, and an all-cancelled row stays untouched.
        """
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} columns times {other.rows} rows")
        out = Matrix(self.rows, other.cols)
        brows = other._rows
        for r, row in enumerate(self._rows):
            if not row:
                continue
            acc = {}
            get = acc.get
            for k, a in row.items():
                an, ad = a._numerator, a._denominator
                for c, b in brows[k].items():
                    n, d = an * b._numerator, ad * b._denominator
                    old = get(c)
                    if old is not None:
                        on, od = old
                        if od == d:
                            n += on
                        else:
                            g = gcd(od, d)
                            n = on * (d // g) + n * (od // g)
                            d = od // g * d
                    acc[c] = (n, d)
            kept = out._rows[r]
            for c, (n, d) in acc.items():
                if n:
                    kept[c] = Fraction(n, d)
        return out

    def mul_vector(self, vec):
        """self @ vec as a list; the entries of vec go through `exact`, only
        the nonzero ones are multiplied, and every sum starts at Fraction 0."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.cols} columns")
        nonzero = {c: x for c, v in enumerate(vec) if (x := v if type(v) is Fraction else exact(v))}
        return [
            sum((v * nonzero[c] for c, v in row.items() if c in nonzero), start=F0)
            for row in self._rows
        ]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def _echelon(m):
    """Forward elimination to a row echelon form on integer rows, each
    nonzero row scaled once over its own least common denominator.

    An index maps each column to the set of rows holding it, so each pivot
    touches only those rows; the columns that hold entries are visited in
    ascending order.  The pivot is the sparsest row holding the column,
    ties going to the lowest row index.  A holder becomes (p/g) row -
    (f/g) pivot, g = gcd(p, f), divided by its content when p/g != 1,
    both scalings in place: a multiple of the Fraction row that leading-1
    pivots would give, with the same keys in the same order.  Returns
    (pivot_cols, pivot_rows): pivot columns ascending, and the integer
    dict row leading at each.
    """
    rows = {}
    for r, row in enumerate(m._rows):
        if row:
            d = lcm(*[v._denominator for v in row.values()])
            rows[r] = {c: v._numerator * (d // v._denominator) for c, v in row.items()}
    index = {}
    for r, row in rows.items():
        for c in row:
            index.setdefault(c, set()).add(r)
    pivot_cols = []
    pivot_rows = []
    for col in sorted(index):
        holders = index.pop(col)
        if not holders:
            continue
        if len(holders) == 1:
            best = holders.pop()
        else:
            best = min(holders, key=lambda r: (len(rows[r]), r))
            holders.remove(best)
        pivot = rows.pop(best)
        p = pivot[col]
        others = [(c, v) for c, v in pivot.items() if c != col]
        for c, _ in others:
            index[c].discard(best)
        for r in holders:
            row = rows[r]
            f = row.pop(col)
            g = gcd(p, f)
            s, f = p // g, f // g
            if s != 1:
                for c, w in row.items():
                    row[c] = s * w
            for c, v in others:
                w = row.get(c)
                if w is None:
                    row[c] = -f * v
                    index[c].add(r)
                else:
                    w -= f * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        index[c].discard(r)
            if s != 1:
                content = gcd(*row.values())
                if content > 1:
                    for c, w in row.items():
                        row[c] = w // content
        pivot_cols.append(col)
        pivot_rows.append(pivot)
    return pivot_cols, pivot_rows


def _rref_rows(m):
    """Reduced row echelon form: `_reduce` of `_echelon`.

    Returns (pivot_cols, echelon_rows) where echelon_rows[k] is the dict
    row whose pivot is pivot_cols[k].  Pivot columns are ascending.
    """
    return _reduce(*_echelon(m))


def _reduce(pivot_cols, rows):
    """Echelon integer rows, leading at the ascending pivot_cols, reduced:
    each divided by its leading entry into Fractions, then one
    back-substitution pass from the last pivot upward.  Returns
    (pivot_cols, reduced_rows)."""
    rows = [{c: Fraction(v, row[col]) for c, v in row.items()} for col, row in zip(pivot_cols, rows)]
    for k in range(len(rows) - 1, 0, -1):
        col, pivot = pivot_cols[k], rows[k]
        for j in range(k):
            row = rows[j]
            f = row.get(col)
            if f:
                for c, v in pivot.items():
                    w = row.get(c, F0) - f * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
    return pivot_cols, rows


def rref(m):
    """Reduced row echelon form as a Matrix (zero rows dropped)."""
    pivot_cols, echelon = _rref_rows(m)
    return Matrix(len(echelon), m.cols, echelon)


def rank(m):
    return len(pivot_columns(m))


def pivot_columns(m):
    """Pivot columns of the reduced row echelon form, ascending: each
    column of m that is independent of the columns before it, as a new
    list; the first call eliminates m and keeps them on it."""
    if m._pivots is None:
        m._pivots = _echelon(m)[0]
    return list(m._pivots)


def kernel_basis(m):
    """Reduced-echelon basis of the right kernel of m.

    One vector per free column, ordered by that column ascending; the
    vector for free column f has a 1 in position f.
    """
    pivot_cols, echelon = _rref_rows(m)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [F0] * m.cols
        vec[free] = F1
        for pc, row in zip(pivot_cols, echelon):
            v = row.get(free)
            if v:
                vec[pc] = -v
        basis.append(vec)
    return basis


def solve(a, b):
    """One exact solution x of a x = b, with free variables set to zero.

    Raises InconsistentSystem if b is not in the column space of a.
    """
    if len(b) != a.rows:
        raise ValueError(f"length of b must equal row count: {len(b)} != {a.rows}")
    aug = Matrix(a.rows, a.cols + 1)
    for r, row in enumerate(a._rows):
        new = dict(row)
        v = exact(b[r])
        if v:
            new[a.cols] = v
        aug._rows[r] = new
    pivot_cols, echelon = _rref_rows(aug)
    if a.cols in pivot_cols:
        raise InconsistentSystem("b is not in the column space")
    x = [F0] * a.cols
    for pc, row in zip(pivot_cols, echelon):
        x[pc] = row.get(a.cols, F0)
    return x
