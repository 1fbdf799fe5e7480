"""Structural validation of manifolds, and the example builders.

The data model itself (characters, lattices, :class:`SolvManifoldSpec`)
lives in ``model``.  Here :func:`validate` checks a manifold's lattices on
their witnesses, with the witness numerics it needs, and the builders make
the named example families; each builder refuses an n + m past the
counting cap before it builds anything.  A lattice's rank is certified
from one exact inverse of its witness matrix.  The fiber lattice's inverse
also gives the action of each base generator on the fiber basis, exactly
on the witnesses, with a bound on its error.  Builder witnesses are the
nearest floats to their constants, as :func:`validate` assumes, all but
``example2_n1``'s ``logeps``, in the base lattice only.
"""

from __future__ import annotations

import cmath
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

FIBER_OK = "ok"
FIBER_VIOLATED = "violated"
FIBER_UNDECIDED = "undecided"
FIBER_NOT_CHECKED = "not_checked"


def _exact_matrix(generators: Sequence[Sequence[ComplexExact]], table: SymbolTable) -> tuple[list, list]:
    """The witness matrix of ``generators``, computed exactly, and a bound on each row's error.

    The matrix has one row per generator, (Re g_1..Re g_n, Im g_1..Im g_n):
    for a lattice it is W^T, W the matrix with the realified generators as
    columns.  Each witness but ``one``'s is its constant to within half an
    ulp, so a row's entries c * x err by at most sum |c| * ulp(witness of x)
    / 2 in all, which bounds the row's error in the 1-norm.
    """
    exact = {x: Fraction(w) for x, w in table.entries}
    half_ulp = {x: Fraction(0 if x == "one" else math.ulp(w)) / 2 for x, w in table.entries}
    rows, errors = [], []
    for gen in generators:
        scalars = [z.re for z in gen] + [z.im for z in gen]
        rows.append([sum((c * exact[x] for x, c in s.coeffs), Fraction(0)) for s in scalars])
        errors.append(sum((abs(c) * half_ulp[x] for s in scalars for x, c in s.coeffs), Fraction(0)))
    return rows, errors


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
    """The infinity norm, the largest absolute row sum, so the 1-norm of the transpose; 0 if empty."""
    return max((sum(abs(x) for x in row if x) for row in matrix), default=Fraction(0))


def _to_float(value: Fraction) -> float:
    return float(value) if value < sys.float_info.max else math.inf


def _dot(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
    """The exact dot product, skipping zero factors: a torus's matrices are mostly zeros."""
    return sum((x * y for x, y in zip(xs, ys) if x and y), Fraction(0))


def _fiber_action(exact, inverse, values: Sequence[tuple[Fraction, Fraction]]) -> list[list[Fraction]]:
    """C^T = W^T D^T W^-T, the transposed action C = W^-1 D W on the fiber basis W, exactly.

    ``exact`` is W^T (:func:`_exact_matrix`), ``inverse`` its exact inverse,
    and D the realification of diag(``values``), each a pair (re, im).  Row j
    holds the coefficients of generator j times D on the fiber basis.
    """
    m = len(values)
    columns = list(zip(*inverse))
    first, second = [(re, -im) for re, im in values], [(im, re) for re, im in values]
    action = []
    for row in exact:
        image = [_dot(v, (x, y)) for v, x, y in zip(first, row, row[m:])]
        image += [_dot(v, (x, y)) for v, x, y in zip(second, row, row[m:])]
        action.append([_dot(image, col) for col in columns])
    return action


def validate(spec: SolvManifoldSpec) -> dict:
    """The report's ``validation`` record: lattice ranks and fiber preservation.

    It holds ``lattice_rank_ok``, ``fiber_preserved`` (a ``FIBER_*`` value) and
    the ``details`` lines.  Failures are reported, never raised.  All checks
    run on the witnesses, in 1-norms, on two assumptions: each witness is its
    constant, pi's too, to within half an ulp, and ``cmath.exp`` is within one
    ulp in each part.  Of the builders' witnesses only ``example2_n1``'s
    ``logeps`` is not proved so (within 0.98 ulp on the traces measured); it
    enters only the base lattice diag(logeps, i c1), whose rank certificate
    has a margin over 10^12.

    A lattice's rank is certified full when its witness matrix W, inverted
    exactly, and the bound E on W's error (:func:`_exact_matrix`) reach
    r = ||W^-1|| ||E|| < 1: every matrix within E of W is then invertible
    (Neumann series).  Otherwise the detail names the lattice and says
    "singular" or gives r.  Fiber preservation is checked on the fiber's
    exact inverse (:func:`_check_fiber_preservation`).
    """
    details: list[str] = []
    rank_ok = True
    fiber_status = FIBER_NOT_CHECKED
    for label, lattice in (("base", spec.lattice), ("fiber", spec.lattice_fiber)):
        if lattice is None:
            continue
        exact, errors = _exact_matrix(lattice.generators, spec.symbols)  # empty for C^0, which has full rank
        inverse = _inverse(exact)
        reach = None if inverse is None else _norm(inverse) * max(errors, default=Fraction(0))
        if reach is None or reach >= 1:
            reason = "witness matrix singular" if reach is None else f"error bound {_to_float(reach):.3e} not below 1"
            details.append(f"{label} lattice rank not certified: {reason}")
            rank_ok = False
        if label == "base":
            base = list(zip(exact, errors))
        else:
            fiber_status = _check_fiber_preservation(spec, base, exact, inverse, reach, details)
    return {"lattice_rank_ok": rank_ok, "fiber_preserved": fiber_status, "details": details}


def _character_value(form, row: Sequence[Fraction], row_error: Fraction) -> tuple[tuple, float]:
    """A character's value v~ at a base point, as a pair of Fractions, and a bound on |v~ - v|.

    ``form`` holds the linear forms of Re w and Im w, w = sum a_j z_j + b_j
    conj(z_j), on the point's exact ``row``, and the bounds e_a + e_b and
    ||a|| + ||b||.  Summed exactly, w errs by eta = (e_a + e_b)(||z|| + e_z) +
    (||a|| + ||b||) e_z, e_z = ``row_error``; rounding it to a float adds half
    an ulp per part.  For eta <= 1, |exp(w~) - v| <= |exp(w~)| (e - 1) eta, so
    with ``cmath.exp``'s ulp per part |v~ - v| <= |v~|_1 (4 eps + 2 eta), plus
    ulp(0) per part for a subnormal result.  exp(0) = 1 is exact.
    OverflowError means w or v~ is past the float range.
    """
    re_form, im_form, coeff_error, coeff_norm = form
    eta = coeff_error * (sum(abs(x) for x in row if x) + row_error) + coeff_norm * row_error
    re, im = _dot(re_form, row), _dot(im_form, row)
    if not (re or im or eta):
        return (Fraction(1), Fraction(0)), 0.0
    w = complex(float(re), float(im))
    eta = _to_float(eta) + (math.ulp(w.real) + math.ulp(w.imag)) / 2
    v = cmath.exp(w)
    error = (abs(v.real) + abs(v.imag)) * (4 * sys.float_info.epsilon + 2 * eta) + 2 * math.ulp(0.0)
    return (Fraction(v.real), Fraction(v.imag)), error if eta <= 1 else math.inf


def _integrality(exact, inverse, kappa, reach, values, errors) -> tuple[str, str]:
    """One base generator's verdict and detail, from C~ = W^-1 D~ W (:func:`_fiber_action`).

    The true C* has W* C* = D* W*, with W* = W + dW and D* = D~ + G, so it is
    within beta = (kappa g + r (||D~|| + g + ||C~||)) / (1 - r) of C~, where
    kappa = ||W|| ||W^-1||, g = 2 max |dv_k| >= ||G|| and r = ``reach`` < 1;
    beta is infinite otherwise.  An integer C* leaves C~ a residual of at most
    beta from its rounding: above it is violated, and a beta of 1/2 or more
    cannot be rounded, so is undecided.
    """
    if inverse is None:
        return FIBER_VIOLATED, "fiber basis is numerically singular"
    coeff = _fiber_action(exact, inverse, values)
    residual = max((abs(x - round(x)) for row in coeff for x in row if x.denominator != 1), default=0)
    g, beta = 2 * max(errors), math.inf
    if reach < 1 and g < math.inf:
        g, size = Fraction(g), max(abs(re) + abs(im) for re, im in values)
        beta = (kappa * g + reach * (size + g + _norm(coeff))) / (1 - reach)
    if residual > beta:
        return FIBER_VIOLATED, f"image not in the integer span, residual {float(residual):.3e}"
    if beta >= 0.5:
        return FIBER_UNDECIDED, f"integrality undecided, error bound {_to_float(beta):.3e} not below 1/2"
    return FIBER_OK, f"integer matrix recovered, residual {float(residual):.3e}, determinant 1"


def _check_fiber_preservation(spec: SolvManifoldSpec, base, exact, inverse, reach, details: list[str]) -> str:
    """Per base generator, recover the integer matrix C of the action on the fiber basis W.

    ``base`` pairs each base generator's exact row with its error bound,
    ``exact`` is the fiber's W^T, ``inverse`` its exact inverse (None if W is
    singular) and ``reach`` the rank certificate's ||W^-1|| ||E||; the
    character values (:func:`_character_value`) give :func:`_integrality`'s
    verdict.  det C = |P(g)|^2, P the product of the fiber characters, is 1
    at every g where P is unitary (:attr:`SolvManifoldSpec.is_unimodular`),
    else not 1 at some generator of a full-rank lattice, so a non-unimodular
    action is violated at once.  A value past the float range is undecided.
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
    n, forms = spec.n, []
    for alpha in spec.alphas:  # Re w = (Re a + Re b) x + (Im b - Im a) y, Im w = (Im a + Im b) x + (Re a - Re b) y
        (a, b), (a_error, b_error) = _exact_matrix((alpha.a, alpha.b), spec.symbols)
        re_form = [p + q for p, q in zip(a, b[:n])] + [q - p for p, q in zip(a[n:], b[n:])]
        im_form = [p + q for p, q in zip(a[n:], b[n:])] + [p - q for p, q in zip(a, b[:n])]
        forms.append((re_form, im_form, a_error + b_error, sum(abs(x) for x in a + b if x)))
    kappa = None if inverse is None else _norm(exact) * _norm(inverse)
    statuses = set()
    for gi, (row, row_error) in enumerate(base, start=1):
        try:
            values, errors = zip(*(_character_value(form, row, row_error) for form in forms))
        except OverflowError:
            status, text = FIBER_UNDECIDED, "a fiber character's value is past the float range"
        else:
            status, text = _integrality(exact, inverse, kappa, reach, values, errors)
        statuses.add(status)
        details.append(f"base generator {gi}: {text}")
    return next((s for s in (FIBER_VIOLATED, FIBER_UNDECIDED) if s in statuses), FIBER_OK)


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

    The input is a unimodular hyperbolic integer matrix A, with eigenvector
    matrix E = [[a12, a12], [lam - a11, mu - a11]], the dominant eigenvalue
    lam first so that the expanding character e^x matches it.  The columns
    of adj(E) = det(E) E^-1, and i times them, span the fiber lattice, on
    which the real base generator, the log of |lam|, acts by A times the
    trace's sign.  The entries are exact over ``one`` and ``sqrtD``, whose
    witness is the nearest float to sqrt D, D = tr(A)^2 - 4, never a square.
    No exact verdict reads a fiber symbol, so a D that is twice a square,
    making sqrtD a multiple of c1, changes none.  The imaginary base
    generator is a fresh irrational parameter.
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
    disc, half = trace * trace - 4, Fraction(a22 - a11, 2)
    shift = max(0, 55 - disc.bit_length() // 2)
    try:
        # isqrt(D 4^k) < 2^k sqrt D < isqrt(D 4^k) + 1; with 55 bits no rounding midpoint lies in
        # between, so this correctly rounded int / int is the nearest float to sqrt D
        root = (2 * math.isqrt(disc << 2 * shift) + 1) / (2 << shift)
        log_eps = math.acosh(abs(trace) / 2)
        # a spec file's literals need floats: a12, and the largest fiber entry on the witnesses
        float(a12)
        finite = math.isfinite(abs(float(half)) + root / 2)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("matrix entries are past the float range")

    table = SymbolTable.base().with_symbol("logeps", log_eps)
    table = table.with_symbol("c1", math.sqrt(2.0)).with_symbol("sqrtD", root)
    # (mu - a11, a11 - lam) = (h, -h) - s sqrt(D) / 2 with h = (a22 - a11) / 2 and s the trace's sign
    term = Fraction(-1 if trace > 0 else 1, 2)
    columns = (
        (ExactScalar.make({"one": half, "sqrtD": term}), ExactScalar.make({"one": -half, "sqrtD": term})),
        (ExactScalar.rational(-a12), ExactScalar.rational(a12)),
    )
    fiber = LatticeBasis(
        2, tuple(tuple(ComplexExact.make(**{part: x}) for x in col) for part in ("re", "im") for col in columns)
    )
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
