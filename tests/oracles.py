"""Independent reference implementations the fast library paths are
compared against: cofactor determinants, a Fraction Gauss-Jordan inverse,
the Fraction normal form that the integer frame kernel replaced, and the
Fraction minor scans that the integer minor engine replaced."""

import itertools
from fractions import Fraction

from gfermat.arrangement import Arrangement, StandardParameter
from gfermat.exactfield import ExactMatrix


def det_cofactor(matrix: ExactMatrix):
    """Determinant by cofactor expansion along the first row."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    if matrix.rows == 1:
        return matrix.entry(0, 0)
    total = 0
    for j in range(matrix.cols):
        pivot = matrix.entry(0, j)
        if pivot == 0:
            continue
        sub = matrix.submatrix(range(1, matrix.rows),
                               [c for c in range(matrix.cols) if c != j])
        term = pivot * det_cofactor(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Inverse by Gauss-Jordan elimination over Fraction."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.rows
    a = [list(matrix.row(i)) + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return ExactMatrix.from_rows([row[n:] for row in a])


def normalize(arr: Arrangement):
    """(T, parameter) over Fraction, without the general-position check:
    T = diag(1 / B^{-1} a) B^{-1} for the frame B and anchor a."""
    d = arr.d
    duals = arr.duals
    base_inv = inverse(ExactMatrix.from_columns(duals[: d + 1]))
    anchor = base_inv.matvec(duals[d + 1])
    transform = ExactMatrix.from_rows(
        [[e / a for e in base_inv.row(i)] for i, a in enumerate(anchor)]
    )
    rows = []
    for q in duals[d + 2:]:
        image = transform.matvec(q)
        last = image[d]
        rows.append(tuple(image[j] / last for j in range(d)))
    return transform, StandardParameter(d, arr.n, tuple(rows))


def act(eta, par: StandardParameter) -> StandardParameter:
    """Reorder the canonical arrangement of par by eta (hyperplane i to
    slot eta(i)) and renormalize with the Fraction reference."""
    d = par.d
    duals = [tuple(Fraction(int(i == j)) for i in range(d + 1)) for j in range(d + 1)]
    duals.append((Fraction(1),) * (d + 1))
    duals.extend(tuple(row) + (Fraction(1),) for row in par.rows)
    inv = eta.inverse()
    reordered = tuple(duals[inv(j)] for j in range(par.n + 1))
    return normalize(Arrangement(d, reordered))[1]


def all_maximal_minors_nonzero(matrix: ExactMatrix, s: int) -> bool:
    """Every s-by-s minor nonzero: one Fraction Bareiss determinant per row
    subset and column subset, with no clearing of denominators."""
    return all(
        matrix.submatrix(rows, cols).det() != 0
        for rows in itertools.combinations(range(matrix.rows), s)
        for cols in itertools.combinations(range(matrix.cols), s)
    )


def is_general_position(points, d: int) -> bool:
    """Every d+1 of the (nonzero, length d+1) dual points independent: each
    (d+1)-minor of the Fraction dual matrix, one determinant at a time."""
    columns = [tuple(Fraction(c) for c in p) for p in points]
    return all_maximal_minors_nonzero(ExactMatrix.from_columns(columns), d + 1)


def smoothness_by_minors(system) -> bool:
    """Every maximal (n-d)-minor of the coefficient matrix itself nonzero,
    with no Gale duality."""
    matrix = system.coefficient_matrix
    return all_maximal_minors_nonzero(matrix, matrix.rows)
