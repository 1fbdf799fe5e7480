"""Character-twisted invariant forms: wedge, differentials, star, certificates.

A form is a finite sum of terms

    (exact complex coefficient) * (character) * (wedge word),

where the word is a product of distinct coordinate codifferentials.  Since
the coefficient functions are characters of the base, both differentials
act by multiplying in the exponent vectors:

    d(c * chi * w) = c * chi * (sum_j a_j dz_j + b_j dzbar_j) ^ w.

Two alphabets are used.  Twisted words are spelled in the coordinate
codifferentials dz, dw, dzbar, dwbar; frame words in the unitary coframe
e_i = dz_i, f_i = (1/alpha_i) dw_i and their conjugates, which the model
metric declares orthonormal.  The anti-linear star is defined
combinatorially on the frame alphabet by complementation, with the sign
pinned by the volume word e_1^ebar_1^...^e_N^ebar_N and the requirement
u ^ star(u) = |u|^2 vol on orthonormal monomials.  Only kernels of the
resulting operators feed certificates, so the overall positive metric
normalisation is fixed to 1.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .characters import CharacterExponent
from .cohomology import (
    MAX_FORMS_DIM,
    BasisElement,
    DimensionCapExceeded,
    MultiIndex,
    PairSweep,
    all_basis_elements,
    check_caps,
    subset_product_tables,
)
from .exact import ComplexExact, Immutable, Value
from .manifold import SolvManifoldSpec

__all__ = [
    "DimensionCapExceeded",
    "FrameForm",
    "Generator",
    "TwistedForm",
    "WedgeClosureReport",
    "bar_star",
    "basis_form",
    "coclosed_mask",
    "dbar",
    "dw",
    "dwbar",
    "dz",
    "dzbar",
    "from_frame",
    "harmonic_rows",
    "is_d_harmonic",
    "is_dbar_coclosed",
    "is_dbar_harmonic",
    "partial",
    "to_frame",
    "volume_form",
    "wedge",
    "wedge_closure_report",
]

_KIND_RANK = {
    "dz": 0, "dw": 1, "dzbar": 2, "dwbar": 3,
    "e": 0, "f": 1, "ebar": 2, "fbar": 3,
}
_CONJUGATE_KIND = {
    "dz": "dzbar", "dzbar": "dz", "dw": "dwbar", "dwbar": "dw",
    "e": "ebar", "ebar": "e", "f": "fbar", "fbar": "f",
}
_HOLOMORPHIC_KINDS = frozenset({"dz", "dw", "e", "f"})


class Generator(Value):
    """One coordinate codifferential (or frame coframe letter)."""

    __slots__ = ("kind", "index")
    kind: str
    index: int

    def _check(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("generator indices are 1-based")

    @property
    def is_holomorphic(self) -> bool:
        return self.kind in _HOLOMORPHIC_KINDS

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.index)

    def conjugate(self) -> "Generator":
        return Generator(_CONJUGATE_KIND[self.kind], self.index)

    def __repr__(self):
        return f"{self.kind}{self.index}"


def dz(i: int) -> Generator:
    return Generator("dz", i)


def dw(i: int) -> Generator:
    return Generator("dw", i)


def dzbar(i: int) -> Generator:
    return Generator("dzbar", i)


def dwbar(i: int) -> Generator:
    return Generator("dwbar", i)


Word = tuple[Generator, ...]
Term = tuple[ComplexExact, CharacterExponent, Word]


def _sorted_word(word: Iterable[Generator]) -> tuple[int, Word]:
    """Sort a word into canonical order; returns (sign, word), sign 0 on repeats."""
    letters = list(word)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1].sort_key() > letters[j].sort_key():
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(letters, letters[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(letters)


def _word_bidegree(word: Word) -> tuple[int, int]:
    p = sum(1 for g in word if g.is_holomorphic)
    return p, len(word) - p


def _term_sort_key(term: Term):
    coeff, char, word = term
    return (len(word), tuple(g.sort_key() for g in word), char.sort_key())


class _Form(Value):
    """Shared normalisation and algebra for both alphabets."""

    __slots__ = ("terms",)
    _kinds: frozenset = frozenset()

    def __init__(self, terms: Iterable[Term] = ()):
        merged: dict[tuple[CharacterExponent, Word], ComplexExact] = {}
        for coeff, char, word in terms:
            for g in word:
                if g.kind not in self._kinds:
                    raise ValueError(f"generator {g!r} not valid in {type(self).__name__}")
            if coeff.is_zero:
                continue
            sign, canonical = _sorted_word(word)
            if sign == 0:
                continue
            signed = coeff if sign == 1 else -coeff
            key = (char, canonical)
            if key in merged:
                merged[key] = merged[key] + signed
            else:
                merged[key] = signed
        cleaned = [
            (coeff, char, word)
            for (char, word), coeff in merged.items()
            if not coeff.is_zero
        ]
        cleaned.sort(key=_term_sort_key)
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def monomial(cls, coeff: ComplexExact, char: CharacterExponent, word: Iterable[Generator]):
        return cls(((coeff, char, tuple(word)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _fields(self):
        # the subclasses add no slots, so Value's own-__slots__ lookup would find none
        return (self.terms,)

    def __add__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return type(self)(self.terms + other.terms)

    def __neg__(self):
        return type(self)(tuple((-c, char, w) for c, char, w in self.terms))

    def __sub__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor):
        """Multiply every coefficient by an exact complex number or rational."""
        return type(self)(tuple((c * factor, char, w) for c, char, w in self.terms))

    def wedge(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot wedge forms over different alphabets")
        out = []
        for c1, chi1, w1 in self.terms:
            for c2, chi2, w2 in other.terms:
                out.append((c1 * c2, chi1 * chi2, w1 + w2))
        return type(self)(out)

    def conjugate(self):
        """Complex conjugate: conjugate coefficients, characters and letters."""
        out = []
        for coeff, char, word in self.terms:
            out.append(
                (coeff.conjugate(), char.conjugate(), tuple(g.conjugate() for g in word))
            )
        return type(self)(out)

    def bidegree(self) -> Optional[tuple[int, int]]:
        """The common bidegree of all terms, or None when mixed or zero."""
        degrees = {_word_bidegree(word) for _, _, word in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def bidegree_components(self) -> dict[tuple[int, int], "_Form"]:
        buckets: dict[tuple[int, int], list[Term]] = {}
        for term in self.terms:
            buckets.setdefault(_word_bidegree(term[2]), []).append(term)
        return {deg: type(self)(terms) for deg, terms in buckets.items()}

    def __repr__(self):
        if self.is_zero:
            return f"{type(self).__name__}(0)"
        bits = []
        for coeff, char, word in self.terms:
            letters = "^".join(repr(g) for g in word) or "1"
            chi = "" if char.is_trivial else f"*{char!r}"
            bits.append(f"({coeff!r}){chi}*{letters}")
        return f"{type(self).__name__}({' + '.join(bits)})"


class TwistedForm(_Form):
    """Form spelled in the coordinate codifferentials dz, dw, dzbar, dwbar."""

    __slots__ = ()
    _kinds = frozenset({"dz", "dw", "dzbar", "dwbar"})

    def partial(self) -> "TwistedForm":
        """Holomorphic differential: wedge in the z-exponent vector."""
        out = []
        for coeff, char, word in self.terms:
            for j, aj in enumerate(char.a, start=1):
                if not aj.is_zero:
                    out.append((coeff * aj, char, (dz(j),) + word))
        return TwistedForm(out)

    def dbar(self) -> "TwistedForm":
        """Antiholomorphic differential: wedge in the zbar-exponent vector."""
        out = []
        for coeff, char, word in self.terms:
            for j, bj in enumerate(char.b, start=1):
                if not bj.is_zero:
                    out.append((coeff * bj, char, (dzbar(j),) + word))
        return TwistedForm(out)

    def d(self) -> "TwistedForm":
        return self.partial() + self.dbar()


class FrameForm(_Form):
    """Form spelled in the orthonormal coframe e, f, ebar, fbar."""

    __slots__ = ()
    _kinds = frozenset({"e", "f", "ebar", "fbar"})


def wedge(f: _Form, g: _Form) -> _Form:
    return f.wedge(g)


def partial(f: TwistedForm) -> TwistedForm:
    return f.partial()


def dbar(f: TwistedForm) -> TwistedForm:
    return f.dbar()


_TO_FRAME_KIND = {"dz": "e", "dzbar": "ebar", "dw": "f", "dwbar": "fbar"}
_FROM_FRAME_KIND = {v: k for k, v in _TO_FRAME_KIND.items()}


def to_frame(form: TwistedForm, spec: SolvManifoldSpec) -> FrameForm:
    """Rewrite over the unitary coframe: dw_i = alpha_i f_i, dwbar_i = conj(alpha_i) fbar_i."""
    out = []
    for coeff, char, word in form.terms:
        chi = char
        letters = []
        for g in word:
            if g.kind == "dw":
                chi = chi * spec.alphas[g.index - 1]
            elif g.kind == "dwbar":
                chi = chi * spec.alphas[g.index - 1].conjugate()
            letters.append(Generator(_TO_FRAME_KIND[g.kind], g.index))
        out.append((coeff, chi, tuple(letters)))
    return FrameForm(out)


def from_frame(form: FrameForm, spec: SolvManifoldSpec) -> TwistedForm:
    """Exact inverse of :func:`to_frame`."""
    out = []
    for coeff, char, word in form.terms:
        chi = char
        letters = []
        for g in word:
            if g.kind == "f":
                chi = chi * spec.alphas[g.index - 1].inverse()
            elif g.kind == "fbar":
                chi = chi * spec.alphas[g.index - 1].conjugate().inverse()
            letters.append(Generator(_FROM_FRAME_KIND[g.kind], g.index))
        out.append((coeff, chi, tuple(letters)))
    return TwistedForm(out)


def _slot(g: Generator, n: int, dim: int) -> int:
    """Unified coframe slot in 1..n+m: base letters first, fiber letters after."""
    slot = g.index if g.kind in ("e", "ebar") else n + g.index
    if (g.kind in ("e", "ebar") and g.index > n) or slot > dim:
        raise ValueError(f"generator {g!r} does not fit a coframe with n={n}, m={dim - n}")
    return slot


def _slot_generator(slot: int, n: int, holomorphic: bool) -> Generator:
    if slot <= n:
        return Generator("e" if holomorphic else "ebar", slot)
    return Generator("f" if holomorphic else "fbar", slot - n)


def _permutation_sign(sequence: Sequence[int]) -> int:
    inversions = 0
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def volume_form(spec: SolvManifoldSpec) -> FrameForm:
    """The positively oriented unit volume word e_1^ebar_1^...^e_N^ebar_N."""
    dim = spec.complex_dim
    word = []
    for slot in range(1, dim + 1):
        word.append(_slot_generator(slot, spec.n, True))
        word.append(_slot_generator(slot, spec.n, False))
    one = ComplexExact.one(spec.symbols)
    return FrameForm.monomial(one, CharacterExponent.trivial(spec.symbols, spec.n), word)


def bar_star(form: FrameForm, spec: SolvManifoldSpec) -> FrameForm:
    """Anti-linear star on homogeneous frame forms, (p, q) -> (N-p, N-q).

    On a frame monomial the word is replaced by its complement; the sign is
    the parity of reordering (word, complement word) into the volume word,
    which makes u ^ star(u) = |u|^2 vol hold on the nose.
    """
    if form.is_zero:
        return form
    if form.bidegree() is None:
        raise ValueError("star of a mixed-bidegree form is not defined")
    dim = spec.complex_dim
    out = []
    for coeff, char, word in form.terms:
        hol = [_slot(g, spec.n, dim) for g in word if g.is_holomorphic]
        anti = [_slot(g, spec.n, dim) for g in word if not g.is_holomorphic]
        hol_set, anti_set = set(hol), set(anti)
        hol_comp = [s for s in range(1, dim + 1) if s not in hol_set]
        anti_comp = [s for s in range(1, dim + 1) if s not in anti_set]
        positions = (
            [2 * s - 1 for s in hol]
            + [2 * s for s in anti]
            + [2 * s - 1 for s in hol_comp]
            + [2 * s for s in anti_comp]
        )
        sign = _permutation_sign(positions)
        new_word = [_slot_generator(s, spec.n, True) for s in hol_comp] + [
            _slot_generator(s, spec.n, False) for s in anti_comp
        ]
        out.append((coeff.conjugate() * sign, char.conjugate(), tuple(new_word)))
    return FrameForm(out)


def _basis_character(spec: SolvManifoldSpec, J: MultiIndex, L: MultiIndex) -> CharacterExponent:
    char = CharacterExponent.trivial(spec.symbols, spec.n)
    for j in J:
        char = char * spec.alphas[j - 1].decompose().hol.inverse()
    for l in L:
        char = char * spec.alphas[l - 1].conjugate().decompose().hol.inverse()
    return char


def basis_form(
    spec: SolvManifoldSpec, element: BasisElement, sweep: PairSweep
) -> TwistedForm:
    """Realise a basis element as a twisted monomial with coefficient 1.

    The character is the product of the inverse holomorphic factors of the
    fiber characters over J and of their conjugates over L; the word is
    dz_I ^ dw_J ^ dzbar_K ^ dwbar_L.
    """
    if (element.J, element.L) not in sweep:
        raise ValueError(f"{element!r} is not admitted by the lattice gate")
    for label, indices, bound in (
        ("I", element.I, spec.n),
        ("K", element.K, spec.n),
        ("J", element.J, spec.m),
        ("L", element.L, spec.m),
    ):
        if indices and indices[-1] > bound:
            raise ValueError(f"{label} index exceeds {bound}")
    char = _basis_character(spec, element.J, element.L)
    word = (
        tuple(dz(i) for i in element.I)
        + tuple(dw(j) for j in element.J)
        + tuple(dzbar(k) for k in element.K)
        + tuple(dwbar(l) for l in element.L)
    )
    return TwistedForm.monomial(ComplexExact.one(spec.symbols), char, word)


def is_dbar_coclosed(form: TwistedForm, spec: SolvManifoldSpec) -> bool:
    """Co-closed for the antiholomorphic differential, exactly.

    Co-closedness is decided through the star: the adjoint differs from
    star-dbar-star only by a sign and an invertible operator, so only the
    vanishing of dbar applied to the starred form is consumed.
    """
    return from_frame(bar_star(to_frame(form, spec), spec), spec).dbar().is_zero


def is_dbar_harmonic(form: TwistedForm, spec: SolvManifoldSpec) -> bool:
    """Closed and co-closed for the antiholomorphic differential, exactly."""
    if form.is_zero:
        return True
    if form.bidegree() is None:
        raise ValueError("harmonicity is only defined for homogeneous forms")
    return form.dbar().is_zero and is_dbar_coclosed(form, spec)


def _c_linear_star(form: TwistedForm, spec: SolvManifoldSpec) -> TwistedForm:
    """C-linear star as the anti-linear star of the conjugate form."""
    conj = form.conjugate()
    total = FrameForm.zero()
    for component in conj.bidegree_components().values():
        total = total + bar_star(to_frame(component, spec), spec)
    return from_frame(total, spec)


def is_d_harmonic(form: TwistedForm, spec: SolvManifoldSpec) -> bool:
    """Closed and co-closed for the full differential, exactly."""
    if form.is_zero:
        return True
    degrees = {p + q for p, q in (_word_bidegree(w) for _, _, w in form.terms)}
    if len(degrees) != 1:
        raise ValueError("d-harmonicity is only defined for forms of pure total degree")
    if not form.d().is_zero:
        return False
    return _c_linear_star(form, spec).d().is_zero


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
    and chi = chi_{J,L} of :func:`basis_form`.  Its differentials are

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
    character unit(A_J) unit(Abar_L), ``decompose`` is a homomorphism and
    J, J^c and L, L^c split 1..m, so for every element

    - b(chi_co) = -c and a(chi_lin) = -conj(c): u is dbar-co-closed exactly
      when supp c misses K (:func:`coclosed_mask`), and d-harmonic implies it;
    - b(chi_lin) = -conj(a(chi)) - c, so chi_lin is never formed;
    - A_J Abar_L = 1 (every admitted pair, once the condition holds) gives
      chi = 1, so u is then d-harmonic exactly when dbar-co-closed.

    So supp c, and supp a(chi), supp(conj(a(chi)) + c) per admitted pair, decide every
    row; characters only multiply (exponents add), so the flags are exact.
    """
    alpha, alpha_bar = subset_product_tables(spec)
    hol = {S: chi.decompose().hol for S, chi in alpha.items()}
    bar_hol = {S: chi.decompose().hol for S, chi in alpha_bar.items()}
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


class WedgeClosureReport(Immutable):
    __slots__ = ("closed", "first_failure")
    closed: bool
    first_failure: Optional[tuple[BasisElement, BasisElement]]


def wedge_closure_report(
    spec: SolvManifoldSpec, sweep: PairSweep, max_dim: int = MAX_FORMS_DIM
) -> WedgeClosureReport:
    """Check that products of basis monomials stay in the exact span of the basis.

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
    within its tolerance bound their sum only by twice that tolerance.
    """
    check_caps(spec.complex_dim, max_dim)
    if sweep.certified:
        return WedgeClosureReport(True, None)
    masked = [(_mask(J), _mask(L), J, L) for J, L in sweep]
    admitted = {(j, l) for j, l, _, _ in masked}
    for j1, l1, J1, L1 in masked:
        for j2, l2, J2, L2 in masked:
            if not (j1 & j2 or l1 & l2) and (j1 | j2, l1 | l2) not in admitted:
                witnesses = (BasisElement((), J1, (), L1), BasisElement((), J2, (), L2))
                return WedgeClosureReport(False, witnesses)
    return WedgeClosureReport(True, None)

