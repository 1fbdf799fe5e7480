"""Seeded workload generator: writes the spec files of one workload.

Every spec is described by a manifest item of plain integers (family,
exponents, regime, flags), which is all the oracle reads.  The spec files
themselves are written through ``solvhodge.cli.emit_example`` (tori,
example1, example2_n1) or, for the symbolic-scale family, directly in the
documented file schema.

Exponents are drawn so that the work per spec does not depend on the
seed: the pair gate admits only the pairs the family forces, never an
accidental coincidence.  The seed changes the numbers, not the amount of
work, so runs with different seeds measure the same cost.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

WORKLOADS = ("counting", "forms", "float_fallback")

# witness of the real lattice generator of the symbolic-scale family
LAMBDA_WITNESS = math.log((3.0 + math.sqrt(5.0)) / 2.0)
# a nonzero S passes the float gate when |sin(S*s*t/2)| <= 1e-9; witness
# pairs are kept only when every nonzero S in range stays this far from it
RESONANCE_MARGIN = 1e-3


def _relations(exponents, modulus=None):
    """Integer vectors n in {-2..2}^k with sum n_j a_j == 0 (mod modulus)."""
    found = []
    for n in itertools.product(range(-2, 3), repeat=len(exponents)):
        total = sum(c * a for c, a in zip(n, exponents))
        if (total == 0) if modulus is None else (total % modulus == 0):
            found.append(n)
    return found


def _dissociated(exponents) -> bool:
    """Only n = 0 solves sum n_j a_j = 0 with |n_j| <= 2."""
    return _relations(exponents) == [(0,) * len(exponents)]


def _draw(rng: random.Random, k: int, odd: bool, taken: set, wrapping: bool = False):
    """k signed exponents with distinct magnitudes, dissociated, not drawn before.

    With ``wrapping`` the draw also needs :func:`_wraps` to hold,
    and the pair (exponents, (r, s)) is returned.
    """
    pool = list(range(1, 16, 2)) if odd else list(range(1, 13))
    while True:
        magnitudes = rng.sample(pool, k)
        key = tuple(sorted(magnitudes))
        if key in taken or not _dissociated(magnitudes):
            continue
        exponents = [v if rng.random() < 0.5 else -v for v in magnitudes]
        if wrapping and not _wraps(exponents):
            continue
        taken.add(key)
        if not wrapping:
            return exponents
        s = sum(magnitudes)
        return exponents, (_odd_coprime(rng, s), s)


def _odd_coprime(rng: random.Random, s: int) -> int:
    while True:
        r = rng.choice((1, 3, 5, 7, -1, -3))
        if math.gcd(r, s) == 1:
            return r


def _wraps(exponents: list[int]) -> bool:
    """With t = (r/s)*pi, s = sum |a_j| and r odd, only S = 0 and S = +-2s pass.

    The two pairs with S = +-2s are admitted without being trivial, so the
    condition fails with exactly two violations whatever the seed.
    """
    s = sum(abs(v) for v in exponents)
    signs = tuple(2 if v > 0 else -2 for v in exponents)
    allowed = {(0,) * len(exponents), signs, tuple(-c for c in signs)}
    return set(_relations(exponents, 2 * s)) == allowed


def _float_gate_decided(exponents: list[int], theta: float) -> bool:
    """Every nonzero S in range is kept well clear of the float gate's tolerance."""
    bound = 2 * sum(abs(v) for v in exponents)
    return all(abs(math.sin(S * theta / 2.0)) > RESONANCE_MARGIN for S in range(1, bound + 1))


def _scaled_spec(name: str, exponents: list[int], s_witness: float, t_witness: float) -> dict:
    """Example1-shaped spec with characters e^{+-k s x} and lattice (lambda, i t)."""
    alphas = []
    for k in exponents:
        alphas.append({"real_exp": [{"s": str(k)}]})
        alphas.append({"real_exp": [{"s": str(-k)}]})
    return {
        "name": name,
        "n": 1,
        "m": 2 * len(exponents),
        "symbols": [
            {"name": "one", "value": 1.0},
            {"name": "pi", "value": math.pi},
            {"name": "lambda", "value": LAMBDA_WITNESS},
            {"name": "s", "value": s_witness},
            {"name": "t", "value": t_witness},
        ],
        "alphas": alphas,
        "lattice": [
            [{"re": {"lambda": "1"}, "im": {}}],
            [{"re": {}, "im": {"t": "1"}}],
        ],
        "lattice_fiber": None,
    }


def _hyperbolic_matrices() -> list[tuple[int, int, int, int]]:
    """Unimodular hyperbolic integer 2x2 matrices with entries in -4..4."""
    return [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
        if a * d - b * c == 1 and abs(a + d) > 2
    ]


class _Writer:
    def __init__(self, outdir: Path):
        from solvhodge.cli import emit_example

        self.emit_example = emit_example
        self.outdir = outdir
        self.items: list[dict] = []

    def _item(self, family: str, flags: list[str], **params) -> dict:
        path = self.outdir / f"{len(self.items):02d}_{family}.json"
        item = {
            "file": str(path),
            "family": family,
            "flags": flags,
            "forms": "--skip-forms" not in flags,
            "float_mode": family == "scaled" or "--float" in flags,
            **params,
        }
        self.items.append(item)
        return item

    def builtin(self, family: str, flags: list[str], params: dict, **oracle_params):
        item = self._item(family, flags, **oracle_params)
        spec = self.emit_example(family, params, item["file"])
        item["name"] = spec.name

    def torus(self, n: int, m: int, flags: list[str]):
        self.builtin("torus", flags, {"n": n, "m": m}, n=n, m=m)

    def example1(self, exponents: list[int], t: tuple[int, int] | None, flags: list[str]):
        t_mode = "symbolic" if t is None else f"rational_pi({t[0]},{t[1]})"
        # the builder's symbolic t has witness 1.0; with t = (r/s)*pi the float
        # gate lands on 0 or at least sin(pi/(2s)) away from it
        if "--float" in flags and t is None and not _float_gate_decided(exponents, 1.0):
            raise ValueError(f"float gate undecided for exponents {exponents}")
        self.builtin(
            "example1", flags, {"a": exponents, "t_mode": t_mode},
            n=1, m=2 * len(exponents), a=exponents, t=None if t is None else list(t),
        )

    def example2_n1(self, matrix: tuple[int, int, int, int], flags: list[str]):
        a11, a12, a21, a22 = matrix
        self.builtin(
            "example2_n1", flags, {"A": [[a11, a12], [a21, a22]]},
            n=1, m=2, a=[1], t=None, matrix=list(matrix),
        )

    def scaled(self, rng: random.Random, exponents: list[int], flags: list[str]):
        while True:
            s_w, t_w = rng.uniform(0.6, 1.8), rng.uniform(0.6, 1.8)
            if _float_gate_decided(exponents, s_w * t_w):
                break
        name = "scaled_" + "_".join(str(v) for v in exponents)
        item = self._item("scaled", flags, n=1, m=2 * len(exponents), a=exponents, t=None, name=name)
        Path(item["file"]).write_text(json.dumps(_scaled_spec(name, exponents, s_w, t_w), indent=2) + "\n")


def build(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the spec files of one workload for one seed; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(outdir)
    taken: set = set()
    skip, full = ["--skip-forms"], []
    if workload == "counting":
        for _ in range(2):
            w.example1(_draw(rng, 3, False, taken), None, skip)
        for _ in range(2):
            # t = r*pi with odd exponents: exactly the pairs with even S pass
            w.example1(_draw(rng, 3, True, taken), (rng.choice((1, 3, 5, -1)), 1), skip)
        w.torus(0, 7, skip)
        w.torus(3, 4, skip)
    elif workload == "forms":
        w.torus(2, 1, full)
        w.torus(2, 2, full)
        w.example1(_draw(rng, 1, False, taken), None, full)
        w.example1(*_draw(rng, 1, False, taken, wrapping=True), full)
        w.example1(_draw(rng, 2, False, taken), None, full)
        w.example1(*_draw(rng, 2, False, taken, wrapping=True), full)
        w.example2_n1(rng.choice(_hyperbolic_matrices()), full)
    else:
        # the exact gate escapes at every pair whose character is not trivial
        w.scaled(rng, _draw(rng, 3, False, taken), skip)
        w.scaled(rng, _draw(rng, 1, False, taken), full)
        w.scaled(rng, _draw(rng, 2, False, taken), full)
        w.example1(_draw(rng, 3, False, taken), None, ["--float"] + skip)
        w.example1(_draw(rng, 3, True, taken), (rng.choice((1, 3, 5, -1)), 1), ["--float"] + skip)
        w.example1(*_draw(rng, 1, False, taken, wrapping=True), ["--float"])
        w.example1(_draw(rng, 2, False, taken), None, ["--float"])
    return w.items
