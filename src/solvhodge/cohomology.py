"""Finite Dolbeault model: basis, Hodge and Betti tables, pair-level certificates.

The cohomology of these manifolds is computed by a finite bigraded model
spanned by monomials indexed by quadruples (I, J, K, L): base indices I, K
pick holomorphic respectively antiholomorphic base differentials, fiber
indices J, L pick twisted fiber differentials, subject to one arithmetic
gate: the unitary character attached to the fiber pair (J, L) must restrict
to 1 on the base lattice.  Everything else is counting.

Two code paths produce the Hodge numbers: a closed binomial formula over
the admissible pairs, and literal enumeration of basis elements.  Tests
hold them against each other, and the harmonicity and wedge-closure
verdicts read off the admitted pairs against the forms of ``forms``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Optional

from .exact import ComplexExact, Immutable, SymbolProductUnrepresentable, Value
from .characters import is_trivial_on_lattice, is_trivial_on_lattice_float
from .model import CharacterExponent, SolvManifoldSpec, check_caps

__all__ = [
    "BasisElement",
    "HodgeTable",
    "PairSweep",
    "betti_numbers",
    "check_condition",
    "coclosed_mask",
    "conjugation_symmetry",
    "harmonic_rows",
    "hodge_symmetry",
    "hodge_table",
    "serre_duality_check",
    "sweep_trivial_pairs",
    "wedge_closure_report",
]

MultiIndex = tuple[int, ...]


class BasisElement(Value):
    """One basis monomial, indexed by (I, J, K, L)."""

    __slots__ = ("I", "J", "K", "L")
    I: MultiIndex
    J: MultiIndex
    K: MultiIndex
    L: MultiIndex

    def _check(self):
        for label, indices in (("I", self.I), ("J", self.J), ("K", self.K), ("L", self.L)):
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"{label} must be strictly increasing")

    @property
    def p(self) -> int:
        return len(self.I) + len(self.J)

    @property
    def q(self) -> int:
        return len(self.K) + len(self.L)

    def __repr__(self):
        return f"BasisElement(I={list(self.I)}, J={list(self.J)}, K={list(self.K)}, L={list(self.L)})"


class PairSweep(Immutable):
    """Result of the fiber pair sweep: the admissible (J, L), sorted, and a certification flag."""

    __slots__ = ("pairs", "certified")
    pairs: tuple[tuple[MultiIndex, MultiIndex], ...]
    certified: bool

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


class HodgeTable(Immutable):
    """Square table of model dimensions indexed by bidegree."""

    __slots__ = ("h",)
    h: tuple[tuple[int, ...], ...]

    def _check(self):
        # tuples, since the symmetry checks compare whole tables; n + m >= 1 gives two rows or more
        if not (type(self.h) is tuple and len(self.h) >= 2
                and all(type(row) is tuple and len(row) == len(self.h) for row in self.h)):
            raise ValueError("table must be a square tuple of at least two tuples")
        dim = len(self.h) - 1
        if self.h[0][0] < 1:
            raise ValueError("constants are always present: h[0][0] >= 1")
        for p, row in enumerate(self.h):
            for q, value in enumerate(row):
                if not 0 <= value <= comb(dim, p) * comb(dim, q):
                    raise ValueError(f"h[{p}][{q}] = {value} exceeds the binomial bound")

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.h


def _binomial(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _subsets(m: int) -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = []
    for size in range(m + 1):
        out.extend(combinations(range(1, m + 1), size))
    return tuple(out)


def _subset_products(
    factors: tuple[CharacterExponent, ...], subsets: tuple[MultiIndex, ...], trivial: CharacterExponent
) -> dict[MultiIndex, CharacterExponent]:
    products = {(): trivial}
    for subset in subsets:
        if subset:
            products[subset] = products[subset[:-1]] * factors[subset[-1] - 1]
    return products


def _subset_product_tables(
    spec: SolvManifoldSpec, part: Optional[Callable[[CharacterExponent], CharacterExponent]] = None
) -> tuple[dict[MultiIndex, CharacterExponent], dict[MultiIndex, CharacterExponent]]:
    """The products A_S of the alpha_s and Abar_S of the conj(alpha_s) over s in S, for every S.

    Every character attached to a fiber pair (J, L) is read off these two
    tables.  With ``part`` (``CharacterExponent.unit`` or ``.hol``) the
    tables multiply that part of each factor instead: both parts are
    homomorphisms, so these are the parts of A_S and Abar_S.
    """
    subsets = _subsets(spec.m)
    trivial = CharacterExponent.trivial(spec.symbols, spec.n)
    factors = spec.alphas
    bars = tuple(alpha.conjugate() for alpha in factors)
    if part is not None:
        factors, bars = tuple(map(part, factors)), tuple(map(part, bars))
    return _subset_products(factors, subsets, trivial), _subset_products(bars, subsets, trivial)


def sweep_trivial_pairs(spec: SolvManifoldSpec, force_float: bool = False) -> PairSweep:
    """Sweep all 4^m fiber pairs for lattice triviality of the paired unitary character.

    Exact arithmetic is used wherever the lattice data allows it; pairs whose
    evaluation leaves the exact layer fall back to float witnesses and mark
    the sweep as not certified.  A manifold past the counting cap is refused
    before any work, as every command refuses it.
    """
    check_caps(spec.complex_dim)
    units, bar_units = _subset_product_tables(spec, CharacterExponent.unit)
    pairs: list[tuple[MultiIndex, MultiIndex]] = []
    certified = True
    for J, L in product(units, bar_units):
        chi = units[J] * bar_units[L]
        if force_float:
            certified = False
            accept = is_trivial_on_lattice_float(chi, spec.lattice)
        else:
            try:
                accept = is_trivial_on_lattice(chi, spec.lattice)
            except SymbolProductUnrepresentable:
                certified = False
                accept = is_trivial_on_lattice_float(chi, spec.lattice)
        if accept:
            pairs.append((J, L))
    pairs.sort()
    return PairSweep(tuple(pairs), certified)


def all_basis_elements(spec: SolvManifoldSpec, sweep: PairSweep) -> tuple[BasisElement, ...]:
    """Every basis monomial, sorted by (p, q, I, J, K, L): the bidegree blocks in turn.

    Base indices are free, so each admitted (J, L) takes every pair (I, K) of subsets of 1..n.
    """
    base = _subsets(spec.n)
    elements = [BasisElement(I, J, K, L) for J, L in sweep for I in base for K in base]
    return tuple(sorted(elements, key=lambda el: (el.p, el.q, el.I, el.J, el.K, el.L)))


def hodge_table(spec: SolvManifoldSpec, sweep: PairSweep) -> HodgeTable:
    """Model dimensions by the closed binomial count over admissible pairs.

    h[p][q] = sum over admitted (J, L) of C(n, p - |J|) C(n, q - |L|) depends
    on each pair only through (|J|, |L|), so the pairs are first counted by
    that size and the histogram is convolved with the base binomials.
    """
    dim = spec.complex_dim
    sizes = Counter((len(J), len(L)) for J, L in sweep)
    rows = tuple(
        tuple(
            sum(
                count * _binomial(spec.n, p - j) * _binomial(spec.n, q - l)
                for (j, l), count in sizes.items()
            )
            for q in range(dim + 1)
        )
        for p in range(dim + 1)
    )
    return HodgeTable(rows)


def check_condition(
    spec: SolvManifoldSpec, sweep: PairSweep
) -> tuple[tuple[MultiIndex, MultiIndex], ...]:
    """The admitted pairs whose character is not globally trivial; empty when the condition holds.

    A pair (J, L) violates when the paired unitary character restricts to 1
    on the lattice while the underlying product of fiber characters (times
    the conjugates over L) is not identically 1.  The converse implication
    holds by construction: the unitary part is linear in the exponents, so
    a trivial character has a trivial unitary part, which the lattice gate
    admits.  Zero coefficients are never stored, so A_J Abar_L is trivial
    exactly when A_J equals the inverse of Abar_L: one comparison per pair.
    """
    alpha, alpha_bar = _subset_product_tables(spec)
    inverse_bar = {L: chi.inverse() for L, chi in alpha_bar.items()}
    return tuple((J, L) for J, L in sweep if alpha[J] != inverse_bar[L])


def hodge_symmetry(table: HodgeTable) -> bool:
    """Table-level symmetry h[p][q] == h[q][p], the tests' oracle for :func:`conjugation_symmetry`."""
    return table.h == tuple(zip(*table.h))


def conjugation_symmetry(sweep: PairSweep) -> bool:
    """Set-level symmetry: index swap is a bijection between mirror bidegrees.

    Base indices are unconstrained, so the swap (I, J, K, L) -> (K, L, I, J)
    maps the basis onto itself exactly when the admitted pairs are closed
    under (J, L) -> (L, J).
    """
    pairs = set(sweep.pairs)
    return all((L, J) in pairs for J, L in pairs)


def serre_duality_check(table: HodgeTable) -> bool:
    """Complement symmetry h[p][q] == h[N-p][N-q]."""
    return table.h == tuple(row[::-1] for row in table.h[::-1])


def betti_numbers(table: HodgeTable) -> tuple[int, ...]:
    """Anti-diagonal sums of the Hodge table.

    The sums equal de Rham Betti numbers exactly when the condition holds;
    otherwise they are first-page column sums only.
    """
    dim = len(table.h) - 1
    return tuple(
        sum(table.h[p][r - p] for p in range(dim + 1) if 0 <= r - p <= dim)
        for r in range(2 * dim + 1)
    )


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in indices)


def _support(vector: tuple[ComplexExact, ...]) -> int:
    return _mask(i for i, c in enumerate(vector, start=1) if not c.is_zero)


def _coclosed_vector(spec: SolvManifoldSpec) -> tuple[ComplexExact, ...]:
    total = CharacterExponent.trivial(spec.symbols, spec.n)
    for alpha in spec.alphas:
        total = total * alpha * alpha.conjugate()
    return total.b


def coclosed_mask(spec: SolvManifoldSpec) -> int:
    """Support of c = b(A_{1..m} Abar_{1..m}), where K must miss for dbar-co-closedness.

    ((), ()) is always admitted and meets every K, so the basis is harmonic in
    both senses of :func:`harmonic_rows` (d under the condition) exactly when c = 0.
    """
    return _support(_coclosed_vector(spec))


def harmonic_rows(spec: SolvManifoldSpec, sweep: PairSweep) -> list[dict]:
    """The ``check-harmonic`` schema row of every basis element, no form built.

    A row holds p, q, I, J, K, L and the flags dbar_closed (always True, see
    below), co_closed (so also dbar-harmonic) and d_harmonic.

    The element u = chi * dz_I ^ dw_J ^ dzbar_K ^ dwbar_L has coefficient 1
    and chi = chi_{J,L} of ``forms.basis_form``.  Its differentials are

        dbar u = sum_j b_j(chi) dzbar_j ^ (word),  partial u = sum_j a_j(chi) dz_j ^ (word),

    whose terms carry distinct words, so they cancel nowhere.  chi is
    holomorphic, so dbar u = 0 always, and d u = 0 exactly when supp a(chi)
    lies in I.  Both stars map u to one monomial with coefficient +-1:

    - to_frame, bar_star, from_frame give the character
      chi_co = conj(chi alpha_J conj(alpha)_L) alpha_{J^c}^-1 conj(alpha)_{L^c}^-1
      on the word dz_{I^c} ^ dw_{J^c} ^ dzbar_{K^c} ^ dwbar_{L^c}, so u is
      dbar-co-closed exactly when supp b(chi_co) misses K;
    - the C-linear star (the anti-linear star of conj u) gives
      chi_lin = chi alpha_J conj(alpha)_L alpha_{L^c}^-1 conj(alpha)_{J^c}^-1
      on dz_{K^c} ^ dw_{L^c} ^ dzbar_{I^c} ^ dwbar_{J^c}, which is d-closed
      exactly when supp a(chi_lin) misses K and supp b(chi_lin) misses I.

    With A_S, Abar_S the products of the alpha_s, conj(alpha_s) over s in S
    and c = b(A_{1..m} Abar_{1..m}): chi A_J Abar_L is the unitary gate
    character unit(A_J) unit(Abar_L), ``hol`` and ``unit`` are homomorphisms
    and J, J^c and L, L^c split 1..m, so for every element

    - b(chi_co) = -c and a(chi_lin) = -conj(c): u is dbar-co-closed exactly
      when supp c misses K (:func:`coclosed_mask`), and d-harmonic implies it;
    - b(chi_lin) = -conj(a(chi)) - c, so chi_lin is never formed;
    - A_J Abar_L = 1 (every admitted pair, once the condition holds) gives
      chi = 1, so u is then d-harmonic exactly when dbar-co-closed.

    So supp c, and supp a(chi), supp(conj(a(chi)) + c) per admitted pair, decide every
    row; characters only multiply (exponents add), so the flags are exact.
    """
    hol, bar_hol = _subset_product_tables(spec, CharacterExponent.hol)
    c = _coclosed_vector(spec)
    co_b = _support(c)
    supports = {}
    for J, L in sweep:
        a = (hol[J] * bar_hol[L]).inverse().a
        supports[J, L] = _support(a), _support(tuple(x.conjugate() + y for x, y in zip(a, c)))
    rows = []
    for el in all_basis_elements(spec, sweep):
        a, lin_b = supports[el.J, el.L]
        i_mask = _mask(el.I)
        co_closed = not co_b & _mask(el.K)
        rows.append({
            "p": el.p, "q": el.q,
            "I": list(el.I), "J": list(el.J), "K": list(el.K), "L": list(el.L),
            "dbar_closed": True, "co_closed": co_closed,
            "d_harmonic": co_closed and not a & ~i_mask and not lin_b & i_mask,
        })
    return rows


def wedge_closure_report(
    spec: SolvManifoldSpec, sweep: PairSweep
) -> Optional[tuple[BasisElement, BasisElement]]:
    """The first two basis monomials whose product leaves the span of the basis, or None.

    The wedge of two basis monomials vanishes unless their index sets are
    disjoint, and is then, up to sign, the monomial of the union quadruple,
    whose character is that of the union fiber pair.  Base indices are free,
    so the span is closed exactly when the admitted pairs are closed under
    disjoint union; a failure is witnessed by two elements with empty base
    indices.

    A certified sweep is closed without a pair loop.  Every one of its pairs
    was decided exactly by the gate character unit(A_J) unit(Abar_L), and for
    disjoint pairs A_{J1 u J2} = A_{J1} A_{J2}, the same for Abar, while unit
    is a homomorphism.  So the union's gate exponent at each lattice
    generator is the sum of the two pairs' exponents, two elements of
    2 pi i Z, and the union is admitted.  An uncertified sweep keeps the
    literal check: the float test is not additive, since two exponents
    within its tolerance bound their sum only by twice that tolerance.  That
    walk costs P^2 for P admitted pairs, so it alone is held to the forms cap.
    """
    if sweep.certified:
        return None
    check_caps(spec.complex_dim, forms=True)
    masked = [(_mask(J), _mask(L), J, L) for J, L in sweep]
    admitted = {(j, l) for j, l, _, _ in masked}
    for j1, l1, J1, L1 in masked:
        for j2, l2, J2, L2 in masked:
            if not (j1 & j2 or l1 & l2) and (j1 | j2, l1 | l2) not in admitted:
                return BasisElement((), J1, (), L1), BasisElement((), J2, (), L2)
    return None
