"""Exact sparse linear algebra over Q(zeta_N), and the coordinate
arithmetic of the center.

Everything here is plain Gaussian elimination with one field inversion per
pivot (pivot rows are normalized to a unit pivot, elimination itself is
multiply-subtract).  Matrices are small in this project -- at most a few
hundred rows -- so no fraction-free bookkeeping is needed.

The center's matrices are dense lists of rows of Cyclo over Radford or
canonical coordinates; its coordinate vectors are dense lists or sparse
dicts {index: Cyclo} (sparse_vector).  Every product of them (mat_mul_dense,
mat_vec, combine) is one cyclotomic.sum_products batch, and invert_dense is
the one inverse, read off the same elimination (_eliminate) on the sparse
rows [M | 1].
"""

from __future__ import annotations

from itertools import chain

from .cyclotomic import Cyclo, CycloContext, sparse_sum, sum_products

__all__ = ["SparseMat", "nullspace", "closure_rank",
           "invert_dense", "mat_mul_dense", "columns", "sparse_vector", "mat_vec",
           "scalar_of", "combine"]


class SparseMat:
    """Sparse matrix over Cyclo with dict-of-entries storage."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = data or {}

    def get(self, i, j, zero):
        return self.data.get((i, j), zero)

    def __mul__(self, other: "SparseMat") -> "SparseMat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        rows_b = {}
        for (k, j), v in other.data.items():
            rows_b.setdefault(k, []).append((j, v))
        return SparseMat(self.nrows, other.ncols, sparse_sum(
            ((i, j), v * w)
            for (i, k), v in self.data.items()
            for j, w in rows_b.get(k, ())))

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return SparseMat(self.nrows, self.ncols, sparse_sum(
            chain(self.data.items(), other.data.items())))

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scale(-1)

    def scale(self, s) -> "SparseMat":
        if not s:
            return SparseMat(self.nrows, self.ncols, {})
        return SparseMat(self.nrows, self.ncols,
                         {k: v * s for k, v in self.data.items()})

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def kron(self, other: "SparseMat") -> "SparseMat":
        out = {}
        n2, m2 = other.nrows, other.ncols
        for (i1, j1), v1 in self.data.items():
            for (i2, j2), v2 in other.data.items():
                out[(i1 * n2 + i2, j1 * m2 + j2)] = v1 * v2
        return SparseMat(self.nrows * n2, self.ncols * m2, out)

    def apply(self, vec: dict) -> dict:
        """Matrix times sparse column vector {index: Cyclo}."""
        cols = {}
        for (i, j), v in self.data.items():
            cols.setdefault(j, []).append((i, v))
        return sparse_sum((i, v * x) for j, x in vec.items() for i, v in cols.get(j, ()))

    @staticmethod
    def identity(n: int, ctx: CycloContext) -> "SparseMat":
        return SparseMat(n, n, {(i, i): ctx.one for i in range(n)})


def _sub_multiple(row, c, prow):
    """row -= c * prow in place, dropping the entries that cancel."""
    nc = -c
    get = row.get
    for j, v in prow.items():
        w = get(j)
        nv = w + nc * v if w is not None else nc * v
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


def _reduce(row, echelon):
    """Clear, in place, the pivot columns of `echelon` (unit pivots) from
    `row`; returns `row`."""
    for pc, prow in echelon:
        c = row.get(pc)
        if c is not None:
            _sub_multiple(row, c, prow)
    return row


def _insert(echelon, row) -> bool:
    """Reduce a copy of `row` against `echelon`; if anything is left,
    normalize it to a unit pivot at its smallest column (a sparsity
    heuristic), clear that column from the other rows and append it.
    Returns whether the row was appended, i.e. the rank grew."""
    row = {j: v for j, v in _reduce(dict(row), echelon).items() if v}
    if not row:
        return False
    pc = min(row)
    piv_inv = row[pc].inv()
    row = {j: v * piv_inv for j, v in row.items()}
    for idx, (pc2, prow2) in enumerate(echelon):
        c = prow2.get(pc)
        if c is not None:
            new = dict(prow2)
            _sub_multiple(new, c, row)
            echelon[idx] = (pc2, new)
    echelon.append((pc, row))
    return True


def _eliminate(rows):
    """Forward elimination on a list of sparse rows (dicts {col: Cyclo}).
    Returns the echelon rows as (pivot_col, row_dict), sorted by pivot,
    normalized to unit pivots and fully reduced above and below."""
    echelon = []
    for row in rows:
        _insert(echelon, row)
    echelon.sort(key=lambda t: t[0])
    return echelon


def closure_rank(seeds, maps) -> int:
    """Dimension of the smallest subspace that contains the sparse vectors
    `seeds` ({index: Cyclo}) and is mapped into itself by every linear map
    in `maps` (functions on such vectors), found by growing one echelon
    form a vector at a time."""
    echelon = []
    frontier = [v for v in seeds if _insert(echelon, v)]
    while frontier:
        frontier = [w for v in frontier for f in maps
                    for w in (f(v),) if _insert(echelon, w)]
    return len(echelon)


def nullspace(rows, ncols: int, ctx: CycloContext):
    """Nullspace basis of the linear map given by sparse rows over ncols
    unknowns; returns a list of dense coefficient lists."""
    echelon = _eliminate(rows)
    pivots = {pc for pc, _ in echelon}
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [ctx.zero] * ncols
        vec[f] = ctx.one
        for pc, prow in echelon:
            c = prow.get(f)
            if c is not None:
                vec[pc] = -c
        basis.append(vec)
    return basis


class SpanSolver:
    """Precomputed echelon form of a fixed set of spanning vectors, for
    repeated membership queries and coordinate extraction.

    The augmented rows [v_i | e_i] are eliminated to an echelon form that
    is fully reduced with unit pivots, so a pivot column is nonzero in its
    own row only.  Reducing a target t against it therefore subtracts
    t[pc] times the row of each pivot pc, the target's own entry, whatever
    the order of the rows: every entry of the residual,

        r_j = t_j - sum_pc t[pc] * row_pc[j],

    is an independent sum of products, and all of them go into one
    `sum_products` batch.  t lies in the span iff no entry of the key
    block survives (the batch sums -r_j there, which is zero when r_j
    is); its coordinates are then the negated entries of the coordinate
    block, sum_pc t[pc] * row_pc[n + i].

    `coordinates` needs a linearly independent spanning set: only then
    are the coordinates unique and every pivot in the key block.  It
    raises ValueError otherwise.  `contains` and `rank` hold for any set.
    """

    def __init__(self, vectors, ctx: CycloContext):
        """vectors: list of sparse dicts {key: Cyclo} over arbitrary hashable
        coordinates."""
        self.ctx = ctx
        self._minus_one = ctx.integer(-1)
        keys = set()
        for v in vectors:
            keys.update(v)
        self.key_index = {k: i for i, k in enumerate(sorted(keys))}
        # augmented rows: [vector | e_i]
        n = len(keys)
        self.n = n
        self.nvec = len(vectors)
        rows = []
        for i, v in enumerate(vectors):
            row = {self.key_index[k]: c for k, c in v.items()}
            row[n + i] = ctx.one
            rows.append(row)
        echelon = _eliminate(rows)
        # the rows with a key-block pivot, in pivot order and without their
        # unit pivot: the key block alone, and the whole row
        self._key_rows = {}
        self._full_rows = {}
        for pc, row in echelon:
            if pc < n:
                key_part = [(j, v) for j, v in row.items() if j < n and j != pc]
                self._key_rows[pc] = key_part
                self._full_rows[pc] = key_part + [(j, v) for j, v in row.items() if j >= n]
        self.rank = len(self._key_rows)
        self.independent = self.rank == len(vectors)

    def _residual(self, target: dict, pivot_rows):
        """The nonzero sums {column: Cyclo} of the batch over the blocks in
        `pivot_rows`: -r_j at a key column j, the coordinate i at n + i;
        None if target has a nonzero coefficient at a key outside the
        span's support."""
        minus_one = self._minus_one
        row = {}
        for k, c in target.items():
            if not c:
                continue
            idx = self.key_index.get(k)
            if idx is None:
                return None
            row[idx] = c
        triples = [(j, c, minus_one) for j, c in row.items() if j not in pivot_rows]
        triples += [(j, c, v) for pc, block in pivot_rows.items()
                    for c in (row.get(pc),) if c is not None
                    for j, v in block]
        return sum_products(triples)

    def coordinates(self, target: dict):
        """Coefficients expressing target in the span, or None if outside.
        Raises ValueError if the spanning set is linearly dependent."""
        if not self.independent:
            raise ValueError("coordinates need a linearly independent spanning set")
        sums = self._residual(target, self._full_rows)
        if sums is None or any(j < self.n for j in sums):
            return None  # residual in the key block: not in span
        coeffs = [self.ctx.zero] * self.nvec
        for j, v in sums.items():
            coeffs[j - self.n] = v
        return coeffs

    def contains(self, target: dict) -> bool:
        return self._residual(target, self._key_rows) == {}


def invert_dense(mat, ctx: CycloContext):
    """Inverse of a dense square matrix (list of lists of Cyclo): the
    coordinate block of _eliminate run on the sparse rows [mat | 1].  The
    rows are independent, so there are n echelon rows; mat is invertible
    iff every pivot lies in its own block, and ValueError is raised when
    one falls in the identity block."""
    n = len(mat)
    echelon = _eliminate([{**sparse_vector(row), n + i: ctx.one} for i, row in enumerate(mat)])
    if any(pc >= n for pc, _ in echelon):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, ctx.zero) for j in range(n)] for _, row in echelon]


def columns(cols):
    """The square matrix whose columns are the given coordinate lists."""
    return [list(row) for row in zip(*cols)]


def sparse_vector(co):
    """A coordinate list as a sparse vector {index: Cyclo}."""
    return {i: c for i, c in enumerate(co) if c}


def mat_vec(mat, vec) -> dict:
    """mat times the sparse vector vec, as a sparse vector: one
    sum_products batch."""
    return sum_products((i, row[j], x) for i, row in enumerate(mat)
                        for j, x in vec.items() if row[j])


def mat_mul_dense(a, b, ctx: CycloContext):
    """The dense product a b, every entry from one sum_products batch."""
    sums = sum_products(((i, j), x, y) for i, row in enumerate(a)
                        for k, x in enumerate(row) if x
                        for j, y in enumerate(b[k]) if y)
    return [[sums.get((i, j), ctx.zero) for j in range(len(b[0]))]
            for i in range(len(a))]


def scalar_of(mat):
    """If mat is a scalar multiple of the identity, return the scalar."""
    s = mat[0][0]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if (i == j and v != s) or (i != j and not v.is_zero()):
                return None
    return s


def combine(pairs, ctx: CycloContext) -> dict:
    """sum c * vec over (vec, c) pairs of sparse vectors and scalars (int or
    Cyclo), as one sum_products batch."""
    integer = ctx.integer
    return sum_products((i, x, c if isinstance(c, Cyclo) else integer(c))
                        for vec, c in pairs for i, x in vec.items())
