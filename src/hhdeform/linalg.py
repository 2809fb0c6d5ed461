"""Exact sparse linear algebra over the rationals.

Everything here works with `fractions.Fraction`; no floating point is used
anywhere in the package.  Matrices reach a few thousand rows (the
underlying matrix of d^22 at m = 8 is 2816 x 2944), and we favour clarity
and canonical output over asymptotics:

* `rank`, `pivot_columns`, `kernel_basis`, `rref` and `solve` are all
  derived from the reduced row echelon form, which is unique, so the
  results do not depend on pivoting order.
* `kernel_basis` returns the reduced-echelon basis of the right kernel,
  one vector per free column, ordered by free column ascending.
* `solve` returns the particular solution with all free variables set to
  zero, or raises `InconsistentSystem`.

Rows are stored as ``{column: Fraction}`` dicts internally; the matrices
produced by the resolution are extremely sparse and a flat dense array
makes even rank computations at desk scale unreasonably slow.
"""

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


class InconsistentSystem(Exception):
    """Raised by `solve` when b is not in the column space of a."""


class Matrix:
    """A rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._rows = [dict() for _ in range(rows)]
        elif isinstance(entries, list) and entries and isinstance(entries[0], dict):
            self._rows = entries
        else:
            # dense row-major input
            assert len(entries) == rows * cols
            self._rows = []
            for r in range(rows):
                row = {}
                for c in range(cols):
                    v = Fraction(entries[r * cols + c])
                    if v:
                        row[c] = v
                self._rows.append(row)

    @classmethod
    def from_rows(cls, rows_of_scalars):
        rows = len(rows_of_scalars)
        cols = len(rows_of_scalars[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(rows_of_scalars):
            assert len(row) == cols
            m._rows[r] = {c: Fraction(v) for c, v in enumerate(row) if v}
        return m

    @classmethod
    def from_columns(cls, rows, columns):
        """The rows x len(columns) matrix with the given column vectors."""
        m = cls(rows, len(columns))
        for c, column in enumerate(columns):
            for r, v in enumerate(column):
                if v:
                    m._rows[r][c] = Fraction(v)
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m._rows[i][i] = F1
        return m

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    def entry(self, r, c):
        return self._rows[r].get(c, F0)

    def set_entry(self, r, c, v):
        v = Fraction(v)
        if v:
            self._rows[r][c] = v
        else:
            self._rows[r].pop(c, None)

    def add_to_entry(self, r, c, v):
        self.set_entry(r, c, self._rows[r].get(c, F0) + v)

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
        """self @ other, exploiting sparsity."""
        assert self.cols == other.rows, "dimension mismatch"
        out = Matrix(self.rows, other.cols)
        for r, row in enumerate(self._rows):
            acc = {}
            for k, a in row.items():
                for c, b in other._rows[k].items():
                    acc[c] = acc.get(c, F0) + a * b
            out._rows[r] = {c: v for c, v in acc.items() if v}
        return out

    def mul_vector(self, vec):
        assert len(vec) == self.cols
        return [
            sum((v * vec[c] for c, v in row.items()), start=F0)
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


def _rref_rows(m):
    """Reduced row echelon form.

    Returns (pivot_cols, echelon_rows) where echelon_rows[k] is the dict
    row whose pivot is pivot_cols[k].  Pivot columns are ascending.
    """
    rows = [dict(r) for r in m._rows if r]
    pivot_cols = []
    echelon = []
    for col in range(m.cols):
        # find a row with a nonzero entry in this column, preferring sparse
        # rows to limit fill-in (the result is canonical either way)
        best = None
        for idx, row in enumerate(rows):
            if col in row and (best is None or len(row) < len(rows[best])):
                best = idx
        if best is None:
            continue
        pivot = rows.pop(best)
        inv = F1 / pivot[col]
        if inv != F1:
            pivot = {c: v * inv for c, v in pivot.items()}
        # eliminate below
        remaining = []
        for row in rows:
            f = row.get(col)
            if f:
                new = dict(row)
                for c, v in pivot.items():
                    w = new.get(c, F0) - f * v
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
                if new:
                    remaining.append(new)
            else:
                remaining.append(row)
        rows = remaining
        # eliminate above (back substitution into earlier echelon rows)
        for k, row in enumerate(echelon):
            f = row.get(col)
            if f:
                new = dict(row)
                for c, v in pivot.items():
                    w = new.get(c, F0) - f * v
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
                echelon[k] = new
        pivot_cols.append(col)
        echelon.append(pivot)
        if not rows:
            break
    return pivot_cols, echelon


def rref(m):
    """Reduced row echelon form as a Matrix (zero rows dropped)."""
    pivot_cols, echelon = _rref_rows(m)
    out = Matrix(len(echelon), m.cols)
    out._rows = echelon
    return out


def rank(m):
    pivot_cols, _ = _rref_rows(m)
    return len(pivot_cols)


def pivot_columns(m):
    """Pivot columns of the reduced row echelon form, ascending: each
    column of m that is independent of the columns before it."""
    return _rref_rows(m)[0]


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
    assert len(b) == a.rows, "length of b must equal row count"
    aug = Matrix(a.rows, a.cols + 1)
    for r, row in enumerate(a._rows):
        new = dict(row)
        if b[r]:
            new[a.cols] = Fraction(b[r])
        aug._rows[r] = new
    pivot_cols, echelon = _rref_rows(aug)
    if a.cols in pivot_cols:
        raise InconsistentSystem("b is not in the column space")
    x = [F0] * a.cols
    for pc, row in zip(pivot_cols, echelon):
        x[pc] = row.get(a.cols, F0)
    return x
