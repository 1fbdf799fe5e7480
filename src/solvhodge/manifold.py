"""Structural validation of manifolds, and the example builders.

The data model itself (characters, lattices, :class:`SolvManifoldSpec`)
lives in ``model``.  Here :func:`validate` checks a manifold's lattices on
float witnesses, with the witness numerics it needs, and the builders make
the named example families; each builder refuses an n + m past the
counting cap before it builds anything.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ComplexExact, ExactScalar, Immutable, SymbolTable, capped
from .model import CharacterExponent, LatticeBasis, SolvManifoldSpec, check_caps

__all__ = [
    "ValidationReport",
    "example1",
    "example2_n1",
    "rank_certificate",
    "real_matrix",
    "smallest_singular_value",
    "torus",
    "validate",
]

INTEGRALITY_TOLERANCE = 1e-6
RANK_TOLERANCE = 1e-9
# one-sided Jacobi converges quadratically; small witness matrices need a few sweeps
MAX_JACOBI_SWEEPS = 60

FIBER_OK = "ok"
FIBER_VIOLATED = "violated"
FIBER_NOT_CHECKED = "not_checked"


class ValidationReport(Immutable):
    __slots__ = ("lattice_rank_ok", "fiber_preserved", "details")
    lattice_rank_ok: bool
    fiber_preserved: str  # FIBER_OK | FIBER_VIOLATED | FIBER_NOT_CHECKED
    details: tuple[str, ...]


def smallest_singular_value(rows: Sequence[Sequence[float]]) -> float:
    """Smallest singular value of a square float matrix by one-sided (Hestenes) Jacobi.

    Plane rotations orthogonalise the columns in place; the column norms are
    then the singular values.  Working on the matrix itself, not on M^T M,
    keeps the absolute error near machine precision times the norm of M, so
    values near ``RANK_TOLERANCE`` are resolved.  The matrix is first scaled
    by a power of two, which is exact, so that its largest entry is below 1
    in magnitude and no sum of squares overflows.
    """
    _, scale = math.frexp(max(abs(v) for row in rows for v in row))
    columns = [[math.ldexp(v, -scale) for v in col] for col in zip(*rows)]
    size = len(columns)
    threshold = size * sys.float_info.epsilon
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for i in range(size - 1):
            for j in range(i + 1, size):
                x, y = columns[i], columns[j]
                alpha = math.fsum(v * v for v in x)
                beta = math.fsum(v * v for v in y)
                gamma = math.fsum(u * v for u, v in zip(x, y))
                if abs(gamma) <= threshold * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                columns[i] = [c * u - s * v for u, v in zip(x, y)]
                columns[j] = [s * u + c * v for u, v in zip(x, y)]
        if not rotated:
            break
    try:
        return math.ldexp(min(math.hypot(*col) for col in columns), scale)
    except OverflowError:  # the value itself is past the float range
        return math.inf


def real_matrix(lattice: LatticeBasis) -> tuple[tuple[float, ...], ...]:
    """Witness matrix, one row per generator: (Re g_1..Re g_n, Im g_1..Im g_n)."""
    return tuple(
        tuple(c.re.float_value() for c in gen) + tuple(c.im.float_value() for c in gen)
        for gen in lattice.generators
    )


def rank_certificate(lattice: LatticeBasis) -> tuple[bool, float]:
    """Full-rank check on the witness matrix; returns (ok, smallest singular value)."""
    if lattice.n == 0:
        return True, math.inf
    smallest = smallest_singular_value(real_matrix(lattice))
    return smallest > RANK_TOLERANCE, smallest


def _integer_determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small integer matrix (Gaussian elimination over Fractions)."""
    size = len(mat)
    if size == 0:
        return 1
    work = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = work[r][col] / pivot
            for c in range(col, size):
                work[r][c] -= factor * work[col][c]
    if det.denominator != 1:
        raise ValueError("determinant of an integer matrix is not an integer")
    return int(det)


def _fiber_coefficients(
    basis: Sequence[Sequence[float]], values: Sequence[complex]
) -> Optional[list[list[float]]]:
    """Solve W C = D W for C, where W has the realified fiber generators as columns.

    ``basis`` is W, in (Re..., Im...) block layout, and D is the realification
    of diag(values), so row k of D W mixes only rows k and m + k of W.  The
    solve is Gaussian elimination with partial pivoting; None means a pivot
    vanished or the solution is not finite (numerically singular basis).
    OverflowError means D W itself is past the float range.
    """
    m = len(values)
    size = 2 * m
    work = [list(row) for row in basis]  # augmented [W | D W]
    for k, v in enumerate(values):
        top, bottom = basis[k], basis[m + k]
        work[k] += [v.real * x - v.imag * y for x, y in zip(top, bottom)]
        work[m + k] += [v.imag * x + v.real * y for x, y in zip(top, bottom)]
    if not all(math.isfinite(x) for row in work for x in row):
        raise OverflowError("the action on the fiber basis is past the float range")
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == 0.0:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col]
        for r in range(col + 1, size):
            factor = work[r][col] / pivot[col]
            work[r] = [x - factor * p for x, p in zip(work[r], pivot)]
    coeff: list[list[float]] = [[] for _ in range(size)]
    for r in range(size - 1, -1, -1):
        row = work[r]
        coeff[r] = [
            (row[size + c] - sum(row[k] * coeff[k][c] for k in range(r + 1, size))) / row[r]
            for c in range(size)
        ]
    if not all(math.isfinite(x) for row in coeff for x in row):
        return None
    return coeff


def validate(spec: SolvManifoldSpec) -> ValidationReport:
    """Numeric structural checks: lattice ranks and fiber preservation.

    Failures are reported, never raised; all checks run on float witnesses.
    """
    details: list[str] = []
    rank_ok, smallest = rank_certificate(spec.lattice)
    if not rank_ok:
        details.append(f"base lattice rank deficient: smallest singular value {smallest:.3e}")
    fiber_status = FIBER_NOT_CHECKED
    if spec.lattice_fiber is not None:
        fiber_rank_ok, fiber_smallest = rank_certificate(spec.lattice_fiber)
        if not fiber_rank_ok:
            details.append(
                f"fiber lattice rank deficient: smallest singular value {fiber_smallest:.3e}"
            )
        rank_ok = rank_ok and fiber_rank_ok
        fiber_status = _check_fiber_preservation(spec, details)
    return ValidationReport(rank_ok, fiber_status, tuple(details))


def _check_fiber_preservation(spec: SolvManifoldSpec, details: list[str]) -> str:
    if spec.m == 0:
        details.append("fiber lattice empty; preservation holds vacuously")
        return FIBER_OK
    basis = tuple(zip(*real_matrix(spec.lattice_fiber)))  # columns = realified generators
    status = FIBER_OK
    for gi, gen in enumerate(spec.lattice.generators, start=1):
        point = [c.complex_value() for c in gen]
        values = None
        try:
            values = [alpha.value_at(point) for alpha in spec.alphas]
            coeff = _fiber_coefficients(basis, values)
        except OverflowError:
            past = "a fiber character's value" if values is None else "the action on the fiber basis"
            details.append(f"base generator {gi}: {past} is past the float range")
            status = FIBER_VIOLATED
            continue
        if coeff is None:
            details.append(f"base generator {gi}: fiber basis is numerically singular")
            status = FIBER_VIOLATED
            continue
        nearest = [[round(x) for x in row] for row in coeff]
        residual = max(abs(x - k) for row, ints in zip(coeff, nearest) for x, k in zip(row, ints))
        if residual > INTEGRALITY_TOLERANCE:
            details.append(
                f"base generator {gi}: image not in the integer span, residual {residual:.3e}"
            )
            status = FIBER_VIOLATED
            continue
        det = _integer_determinant(nearest)
        if abs(det) != 1:
            from decimal import Decimal  # str(int) refuses past 4300 digits, str(Decimal) does not

            details.append(
                f"base generator {gi}: integer matrix has determinant {capped(str(Decimal(det)))},"
                " not a lattice automorphism"
            )
            status = FIBER_VIOLATED
            continue
        details.append(
            f"base generator {gi}: integer matrix recovered, residual {residual:.3e}, determinant {det}"
        )
    return status


def _standard_lattice(table: SymbolTable, n: int) -> LatticeBasis:
    """Generators e_1..e_n, i*e_1..i*e_n of the Gaussian-integer lattice."""
    zero = ComplexExact.zero(table)
    one = ExactScalar.rational(table, 1)
    generators = []
    for j in range(n):
        generators.append(tuple(ComplexExact.make(table, re=one) if k == j else zero for k in range(n)))
    for j in range(n):
        generators.append(tuple(ComplexExact.make(table, im=one) if k == j else zero for k in range(n)))
    return LatticeBasis(n, tuple(generators))


def _integer(value, name: str) -> int:
    """``value`` itself if it is an int (a bool is not one), else ValueError naming the parameter."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    return value


def torus(n: int, m: int) -> SolvManifoldSpec:
    """Complex torus baseline: trivial action, standard lattices."""
    n, m = _integer(n, "n"), _integer(m, "m")
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError("need n, m >= 0 with n + m >= 1")
    check_caps(n + m)
    table = SymbolTable.base()
    alphas = tuple(CharacterExponent.trivial(table, n) for _ in range(m))
    return SolvManifoldSpec(
        name=f"torus_{n}_{m}",
        n=n,
        m=m,
        alphas=alphas,
        lattice=_standard_lattice(table, n),
        lattice_fiber=_standard_lattice(table, m),
        symbols=table,
    )


_T_MODE_PATTERN = re.compile(r"^rational_pi\(\s*(-?\d+)\s*,\s*(\d+)\s*\)$")


def _parse_t_mode(t_mode) -> Optional[tuple[int, int]]:
    """None means the symbolic regime; otherwise (r, s) with t = (r/s)*pi."""
    if t_mode == "symbolic":
        return None
    match = _T_MODE_PATTERN.match(t_mode.strip()) if isinstance(t_mode, str) else None
    if match:
        r, s = int(match.group(1)), int(match.group(2))
    elif isinstance(t_mode, (tuple, list)) and len(t_mode) == 2:
        r, s = (_integer(v, f"t_mode[{i}]") for i, v in enumerate(t_mode))
    else:
        raise ValueError(f"unknown t_mode {capped(repr(t_mode))}")
    if s <= 0 or r == 0:
        raise ValueError("rational_pi(r, s) needs r != 0 and s > 0")
    try:
        finite = math.isfinite(r / s * math.pi)  # the witness of t = (r/s)*pi
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("t_mode rational_pi(r, s) is past the float range")
    return r, s


# log of the leading eigenvalue of [[2,1],[1,1]]; a convenient transcendental
# witness for the real-direction generator of the mapping-torus lattice
_GOLDEN_LOG = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def example1(a: Sequence[int], t_mode="symbolic") -> SolvManifoldSpec:
    """Mapping-torus family over C with paired real characters e^{a_i x}, e^{-a_i x}.

    The base lattice has one real generator (transcendental witness) and
    one imaginary generator i*t; t is either a fresh independent symbol or
    the rational multiple (r/s)*pi of pi.  No fiber lattice is attached.
    """
    exponents = [_integer(v, f"a[{i}]") for i, v in enumerate(a)]
    check_caps(1 + 2 * len(exponents))
    if not exponents:
        raise ValueError("need at least one fiber exponent")
    if any(v == 0 for v in exponents):
        raise ValueError("fiber exponents must be nonzero")
    ratio = _parse_t_mode(t_mode)
    table = SymbolTable.base().with_symbol("lambda", _GOLDEN_LOG)
    if ratio is None:
        table = table.with_symbol("t", 1.0)
        t_scalar = ExactScalar.symbol(table, "t")
        suffix = "t"
    else:
        r, s = ratio
        t_scalar = ExactScalar.pi_multiple(table, Fraction(r, s))
        suffix = f"pi_{r}_{s}"
    alphas = []
    for v in exponents:
        alphas.append(CharacterExponent.from_real_exponent(table, [v]))
        alphas.append(CharacterExponent.from_real_exponent(table, [-v]))
    lattice = LatticeBasis(
        1,
        (
            (ComplexExact.make(table, re=ExactScalar.symbol(table, "lambda")),),
            (ComplexExact.make(table, im=t_scalar),),
        ),
    )
    name = "example1_" + "_".join(str(v) for v in exponents) + "_" + suffix
    return SolvManifoldSpec(
        name=name,
        n=1,
        m=2 * len(exponents),
        alphas=tuple(alphas),
        lattice=lattice,
        lattice_fiber=None,
        symbols=table,
    )


def example2_n1(matrix: Sequence[Sequence[int]]) -> SolvManifoldSpec:
    """Hyperbolic-torus-bundle family: characters e^x, e^{-x} over C.

    The input is a unimodular hyperbolic integer matrix; its eigenvector
    basis spans the fiber lattice (four generators of a lattice in C^2,
    entered as fresh symbols with float witnesses), and the log of the
    leading eigenvalue modulus gives the real base generator.  The
    imaginary base generator is a fresh irrational parameter.
    """
    rows = [list(row) for row in matrix]
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError("expected a 2x2 integer matrix")
    (a11, a12), (a21, a22) = (
        [_integer(v, f"matrix[{r}][{c}]") for c, v in enumerate(row)] for r, row in enumerate(rows)
    )
    trace = a11 + a22
    det = a11 * a22 - a12 * a21
    if det != 1:
        raise ValueError(f"matrix must have determinant 1, got {det}")
    if abs(trace) <= 2:
        raise ValueError(f"matrix must be hyperbolic, |trace| = {abs(trace)} <= 2")
    try:
        disc = math.sqrt(trace * trace - 4)
        # dominant eigenvalue first so the expanding character e^x matches it;
        # for negative traces the recovered integer matrix is -A, still unimodular
        lam_dom = (trace + disc) / 2.0 if trace > 0 else (trace - disc) / 2.0
        lam_sub = 1.0 / lam_dom
        # a12 != 0 for hyperbolic unimodular integer matrices, so the columns
        # (a12, lam - a11) are honest eigenvectors
        (e11, e12), (e21, e22) = (float(a12), float(a12)), (lam_dom - a11, lam_sub - a11)
        eig_det = e11 * e22 - e12 * e21
        dual = ((e22 / eig_det, -e12 / eig_det), (-e21 / eig_det, e11 / eig_det))  # closed-form inverse
        log_eps = math.log((abs(trace) + disc) / 2.0)
        if not all(math.isfinite(v) for row in dual for v in row):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):  # eig_det is 0 when both lam - a11 round to one float
        raise ValueError("matrix entries are too large for its float eigenvectors") from None

    table = SymbolTable.base().with_symbol("logeps", log_eps)
    table = table.with_symbol("c1", math.sqrt(2.0))
    entry_names = (("g11", "g12"), ("g21", "g22"))
    for r in range(2):
        for c in range(2):
            table = table.with_symbol(entry_names[r][c], dual[r][c])

    def column(c: int, imaginary: bool) -> tuple[ComplexExact, ...]:
        parts = []
        for r in range(2):
            scalar = ExactScalar.symbol(table, entry_names[r][c])
            parts.append(
                ComplexExact.make(table, im=scalar) if imaginary else ComplexExact.make(table, re=scalar)
            )
        return tuple(parts)

    fiber = LatticeBasis(
        2, (column(0, False), column(1, False), column(0, True), column(1, True))
    )
    lattice = LatticeBasis(
        1,
        (
            (ComplexExact.make(table, re=ExactScalar.symbol(table, "logeps")),),
            (ComplexExact.make(table, im=ExactScalar.symbol(table, "c1")),),
        ),
    )
    alphas = (
        CharacterExponent.from_real_exponent(table, [1]),
        CharacterExponent.from_real_exponent(table, [-1]),
    )
    name = f"example2_n1_{a11}_{a12}_{a21}_{a22}"
    return SolvManifoldSpec(
        name=name,
        n=1,
        m=2,
        alphas=alphas,
        lattice=lattice,
        lattice_fiber=fiber,
        symbols=table,
    )
