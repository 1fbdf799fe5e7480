"""Structural validation of manifolds, and the example builders.

The data model itself (characters, lattices, :class:`SolvManifoldSpec`)
lives in ``model``.  Here :func:`validate` checks a manifold's lattices on
their witnesses, with the witness numerics it needs, and the builders make
the named example families; each builder refuses an n + m past the
counting cap before it builds anything.  A lattice's rank is certified
from one exact inverse of its witness matrix.  The fiber lattice's inverse
also gives the action of each base generator on the fiber basis, read off
in floats, and the condition number that bounds that reading.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ComplexExact, ExactScalar, SymbolTable, capped
from .model import CharacterExponent, LatticeBasis, SolvManifoldSpec, check_caps

__all__ = [
    "example1",
    "example2_n1",
    "torus",
    "validate",
]

# the floor under the residual bound of _check_fiber_preservation, its one use
INTEGRALITY_TOLERANCE = 1e-6

FIBER_OK = "ok"
FIBER_VIOLATED = "violated"
FIBER_UNDECIDED = "undecided"
FIBER_NOT_CHECKED = "not_checked"


def _exact_matrix(lattice: LatticeBasis, table: SymbolTable) -> tuple[list[list[Fraction]], Fraction]:
    """The witness matrix, computed exactly, and the infinity norm of a bound on its error.

    The matrix has one row per generator, (Re g_1..Re g_n, Im g_1..Im g_n):
    it is W^T for the matrix W that has the realified generators as columns.
    Each witness but ``one``'s is its constant to within half an ulp, so an
    entry sum c * x errs by at most sum |c| * ulp(witness of x) / 2.
    """
    exact = {x: Fraction(w) for x, w in table.entries}
    half_ulp = {x: Fraction(0 if x == "one" else math.ulp(w)) / 2 for x, w in table.entries}
    rows, error = [], Fraction(0)
    for gen in lattice.generators:
        scalars = [z.re for z in gen] + [z.im for z in gen]
        rows.append([sum((c * exact[x] for x, c in s.coeffs), Fraction(0)) for s in scalars])
        error = max(error, sum((abs(c) * half_ulp[x] for s in scalars for x, c in s.coeffs), Fraction(0)))
    return rows, error


def _inverse(matrix: Sequence[Sequence[Fraction]]) -> Optional[list[list[Fraction]]]:
    """The inverse by Gauss-Jordan elimination over ``Fraction``, or None for a singular matrix."""
    size = len(matrix)
    zero, one = Fraction(0), Fraction(1)
    work = [list(row) + [one if r == k else zero for k in range(size)] for r, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col]
        if pivot[col] != 1:
            pivot = work[col] = [x / pivot[col] for x in pivot]
        for r in range(size):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * p for x, p in zip(work[r], pivot)]
    return [row[size:] for row in work]


def _norm(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """The infinity norm, the largest absolute row sum; 0 for the empty matrix."""
    return max((sum(abs(x) for x in row if x) for row in matrix), default=Fraction(0))


def _exponent(matrix: Sequence[Sequence[Fraction]]) -> int:
    """The binary exponent of the largest entry, to within one, of a matrix with a nonzero entry."""
    return max(x.numerator.bit_length() - x.denominator.bit_length() for row in matrix for x in row if x)


def _to_float(value: Fraction) -> float:
    return float(value) if value < sys.float_info.max else math.inf


def _fiber_action(
    exact: Sequence[Sequence[Fraction]], inverse: Sequence[Sequence[Fraction]], values: Sequence[complex]
) -> list[list[float]]:
    """The matrix C = W^-1 D W of the action on the fiber basis W, in floats.

    ``exact`` is W^T as :func:`_exact_matrix` gives it, and ``inverse`` its
    exact inverse (W^-1)^T.  D is the realification of diag(``values``), so
    row k of D W mixes only rows k and m + k of W.  D W is formed in floats,
    and each entry of C is the ``math.fsum`` of its products with the rounded
    W^-1; OverflowError means a product is past the float range.  C is the
    same for 2^s W, whose inverse is 2^-s W^-1: where W^-1 has the larger
    entries, s meets the two halfway, so both have floats even for a tiny W,
    and the power of two changes no bit where they had floats already.
    """
    m = len(values)
    shift = max(0, (_exponent(inverse) - _exponent(exact)) // 2)
    # int / int is the correctly rounded float of the scaled Fraction
    basis = [[(x.numerator << shift) / x.denominator for x in col] for col in zip(*exact)]
    inverse_rows = [[x.numerator / (x.denominator << shift) for x in col] for col in zip(*inverse)]
    top, bottom = basis[:m], basis[m:]
    scaled = [[v.real * x - v.imag * y for x, y in zip(t, b)] for v, t, b in zip(values, top, bottom)]
    scaled += [[v.imag * x + v.real * y for x, y in zip(t, b)] for v, t, b in zip(values, top, bottom)]
    products = [[[a * b for a, b in zip(row, col)] for col in zip(*scaled)] for row in inverse_rows]
    if not all(math.isfinite(p) for row in products for entry in row for p in entry):
        raise OverflowError("the action on the fiber basis is past the float range")
    return [[math.fsum(entry) for entry in row] for row in products]


def validate(spec: SolvManifoldSpec) -> dict:
    """The report's ``validation`` record: lattice ranks and fiber preservation.

    It holds ``lattice_rank_ok``, ``fiber_preserved`` (a ``FIBER_*`` value) and
    the ``details`` lines.  Failures are reported, never raised; all checks run
    on the witnesses, each taken to be its constant, pi's too, to within half an
    ulp.  Builder witnesses computed in floats can be off by more, until they
    are computed to that precision (ROADMAP item 17): ``example2_n1``'s fiber
    witnesses by up to about 0.3 N ulps for entries of size N.

    A lattice's rank is certified full when its witness matrix W, inverted
    exactly, and the bound E on W's error (:func:`_exact_matrix`) have
    ||W^-1|| ||E|| < 1 in the infinity norm: every matrix within E of W is then
    invertible (Neumann series).  Otherwise the detail names the lattice and
    says "singular" or gives that bound.

    The fiber lattice is preserved when the action is unimodular, decided
    exactly by :attr:`SolvManifoldSpec.is_unimodular`, and at every base
    generator the action's coefficients on the fiber basis are integers;
    fiber preservation is ``undecided`` where the witnesses are too coarse to
    tell whether the coefficients are integers.  Those coefficients are read
    off the fiber lattice's exact inverse, and the base generators' float
    points off the base lattice's exact matrix, so each lattice's witnesses
    are evaluated once.
    """
    details: list[str] = []
    rank_ok = True
    fiber_status = FIBER_NOT_CHECKED
    for label, lattice in (("base", spec.lattice), ("fiber", spec.lattice_fiber)):
        if lattice is None:
            continue
        exact, error = _exact_matrix(lattice, spec.symbols)  # empty for a lattice in C^0, which has full rank
        inverse = _inverse(exact)
        reach = math.inf if inverse is None else _to_float(_norm(inverse) * error)
        if not reach < 1:
            reason = "witness matrix singular" if inverse is None else f"error bound {reach:.3e} not below 1"
            details.append(f"{label} lattice rank not certified: {reason}")
            rank_ok = False
        if label == "base":
            base = exact
        else:
            fiber_status = _check_fiber_preservation(spec, base, exact, inverse, details)
    return {"lattice_rank_ok": rank_ok, "fiber_preserved": fiber_status, "details": details}


def _check_fiber_preservation(
    spec: SolvManifoldSpec,
    base: Sequence[Sequence[Fraction]],
    exact: Sequence[Sequence[Fraction]],
    inverse: Optional[Sequence[Sequence[Fraction]]],
    details: list[str],
) -> str:
    """Per base generator, recover the integer matrix C of the action on the fiber basis W.

    ``base`` and ``exact`` are the exact witness matrices of the base and
    fiber lattices (:func:`_exact_matrix`), the latter W^T, and ``inverse``
    is W^T's exact inverse, None where W is singular.  Each base generator's
    float point is read off its row of ``base``, and C = W^-1 D W off
    ``inverse`` (:func:`_fiber_action`), to within about cond(W) * eps *
    max|C|, with cond(W) the infinity-norm condition number.  A generator
    whose bound reaches 1/2 cannot be rounded, and is undecided.  C has the
    determinant |P(g)|^2 of D, P the product of the fiber characters: 1 at
    every g where P is unitary (:attr:`SolvManifoldSpec.is_unimodular`), and
    else not 1 at some generator of a full-rank lattice.  So a non-unimodular
    action is violated before any generator is read.
    """
    if spec.m == 0:
        details.append("fiber lattice empty; preservation holds vacuously")
        return FIBER_OK
    if not spec.is_unimodular:
        details.append(
            "the action is not unimodular (the product of the fiber characters is not unitary),"
            " so it is not a lattice automorphism"
        )
        return FIBER_VIOLATED
    condition = math.inf if inverse is None else _to_float(_norm(exact) * _norm(inverse))
    n = spec.n
    status = FIBER_OK
    for gi, row in enumerate(base, start=1):
        values = None
        try:
            point = [complex(float(x), float(y)) for x, y in zip(row[:n], row[n:])]
            values = [alpha.value_at(point, spec.symbols) for alpha in spec.alphas]
            coeff = None if inverse is None else _fiber_action(exact, inverse, values)
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
        bound = condition * sys.float_info.epsilon * max(abs(x) for row in coeff for x in row)
        # a rounding residual is at most 1/2, so this never fires once the bound reaches 1/2
        if residual > max(INTEGRALITY_TOLERANCE, bound):
            details.append(
                f"base generator {gi}: image not in the integer span, residual {residual:.3e}"
            )
            status = FIBER_VIOLATED
            continue
        if bound >= 0.5:
            details.append(
                f"base generator {gi}: integrality undecided, error bound {bound:.3e} not below 1/2"
            )
            if status == FIBER_OK:
                status = FIBER_UNDECIDED
            continue
        details.append(
            f"base generator {gi}: integer matrix recovered, residual {residual:.3e}, determinant 1"
        )
    return status


def _standard_lattice(n: int) -> LatticeBasis:
    """Generators e_1..e_n, i*e_1..i*e_n of the Gaussian-integer lattice."""
    zero = ComplexExact.zero()
    units = (ComplexExact.make(re=1), ComplexExact.make(im=1))
    generators = tuple(tuple(u if k == j else zero for k in range(n)) for u in units for j in range(n))
    return LatticeBasis(n, generators)


def _line_lattice(re: ExactScalar, im: ExactScalar) -> LatticeBasis:
    """The lattice of C spanned by ``re`` and i * ``im``."""
    return LatticeBasis(1, ((ComplexExact.make(re=re),), (ComplexExact.make(im=im),)))


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
    return SolvManifoldSpec(
        name=f"torus_{n}_{m}",
        n=n,
        m=m,
        alphas=(CharacterExponent.trivial(n),) * m,
        lattice=_standard_lattice(n),
        lattice_fiber=_standard_lattice(m),
        symbols=SymbolTable.base(),
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
    for i, v in enumerate(exponents):
        try:
            float(Fraction(v, 2))  # the literal a spec file stores, read back as a float
        except OverflowError:
            raise ValueError(f"a[{i}] / 2 is past the float range") from None
    ratio = _parse_t_mode(t_mode)
    table = SymbolTable.base().with_symbol("lambda", _GOLDEN_LOG)
    if ratio is None:
        table = table.with_symbol("t", 1.0)
        t_scalar = ExactScalar.symbol("t")
        suffix = "t"
    else:
        r, s = ratio
        t_scalar = ExactScalar.pi_multiple(Fraction(r, s))
        suffix = f"pi_{r}_{s}"
    alphas = []
    for v in exponents:
        alphas.append(CharacterExponent.from_real_exponent([v]))
        alphas.append(CharacterExponent.from_real_exponent([-v]))
    name = "example1_" + "_".join(str(v) for v in exponents) + "_" + suffix
    return SolvManifoldSpec(
        name=name,
        n=1,
        m=2 * len(exponents),
        alphas=tuple(alphas),
        lattice=_line_lattice(ExactScalar.symbol("lambda"), t_scalar),
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
        # a zero entry is lam - a11 cancelled to 0.0, and no witness of a symbol may be 0
        if not all(math.isfinite(v) and v for row in dual for v in row):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):  # eig_det is 0 when both lam - a11 round to one float
        raise ValueError("matrix entries are too large for its float eigenvectors") from None

    table = SymbolTable.base().with_symbol("logeps", log_eps)
    table = table.with_symbol("c1", math.sqrt(2.0))
    entry_names = (("g11", "g12"), ("g21", "g22"))
    for r in range(2):
        for c in range(2):
            table = table.with_symbol(entry_names[r][c], dual[r][c])

    def column(c: int, part: str) -> tuple[ComplexExact, ...]:
        return tuple(ComplexExact.make(**{part: ExactScalar.symbol(entry_names[r][c])}) for r in range(2))

    fiber = LatticeBasis(2, tuple(column(c, part) for part in ("re", "im") for c in range(2)))
    alphas = (CharacterExponent.from_real_exponent([1]), CharacterExponent.from_real_exponent([-1]))
    name = f"example2_n1_{a11}_{a12}_{a21}_{a22}"
    return SolvManifoldSpec(
        name=name,
        n=1,
        m=2,
        alphas=alphas,
        lattice=_line_lattice(ExactScalar.symbol("logeps"), ExactScalar.symbol("c1")),
        lattice_fiber=fiber,
        symbols=table,
    )
