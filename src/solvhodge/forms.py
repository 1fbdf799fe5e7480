"""Character-twisted invariant forms: the reference algebra for the pair-level verdicts.

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
normalisation is fixed to 1.  No command loads this module.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .cohomology import BasisElement, MultiIndex, PairSweep
from .exact import ComplexExact, Value
from .model import CharacterExponent, SolvManifoldSpec

__all__ = [
    "FrameForm",
    "Generator",
    "TwistedForm",
    "bar_star",
    "basis_form",
    "dw",
    "dwbar",
    "dz",
    "dzbar",
    "from_frame",
    "is_d_harmonic",
    "is_dbar_coclosed",
    "is_dbar_harmonic",
    "to_frame",
    "volume_form",
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

    def __add__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return type(self)(self.terms + other.terms)

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
    return FrameForm.monomial(ComplexExact.one(), CharacterExponent.trivial(spec.n), word)


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
    char = CharacterExponent.trivial(spec.n)
    for j in J:
        char = char * spec.alphas[j - 1].hol().inverse()
    for l in L:
        char = char * spec.alphas[l - 1].conjugate().hol().inverse()
    return char


def basis_form(
    spec: SolvManifoldSpec, element: BasisElement, sweep: PairSweep
) -> TwistedForm:
    """Realise a basis element as a twisted monomial with coefficient 1.

    The character is the product of the inverse holomorphic factors of the
    fiber characters over J and of their conjugates over L; the word is
    dz_I ^ dw_J ^ dzbar_K ^ dwbar_L.
    """
    if (element.J, element.L) not in sweep.pairs:
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
    return TwistedForm.monomial(ComplexExact.one(), char, word)


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
