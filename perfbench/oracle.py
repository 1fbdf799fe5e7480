"""Independent answers for the benchmark corpus, in plain integers.

Nothing here imports solvhodge.  The expected report of a spec is derived
from its manifest item alone:

- example1-shaped families (example1, example2_n1, the symbolic-scale
  specs) have fiber characters e^{c_j x} with c = (a_1, -a_1, a_2, -a_2,
  ...).  A fiber pair (J, L) is admitted when S = sum_J c + sum_L c is 0
  (symbolic lattice parameter) or when S*r/s is an even integer
  (t = (r/s)*pi).  h^{p,q} is the binomial sum over admitted pairs, and
  the condition's violations are the admitted pairs with S != 0;
- torus(n, m) has h^{p,q} = C(N,p)*C(N,q) and b_r = C(2N,r), N = n + m.

:func:`check` compares a report with that answer and with the properties
every report must have.  :func:`selftest` makes sure the comparison
catches a perturbed report.
"""

from __future__ import annotations

import copy
from collections import Counter
from math import comb

_OBSTRUCTED = "obstructed"
_INCONCLUSIVE = "inconclusive"


def _binomial(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _admits(total: int, t) -> bool:
    if t is None:
        return total == 0
    r, s = t
    numerator = total * r
    return numerator % s == 0 and (numerator // s) % 2 == 0


def _indices(mask: int, m: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(m) if mask >> i & 1)


def _pair_answer(item: dict):
    """Admitted-pair histogram by (|J|, |L|), pair count and violations."""
    c = []
    for a in item["a"]:
        c += [a, -a]
    m = len(c)
    sums = [sum(c[i] for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
    by_class = Counter((bin(mask).count("1"), sums[mask]) for mask in range(1 << m))
    sizes: Counter = Counter()
    for (j, s_j), count_j in by_class.items():
        for (l, s_l), count_l in by_class.items():
            if _admits(s_j + s_l, item["t"]):
                sizes[j, l] += count_j * count_l
    violations = set()
    for J in range(1 << m):
        for L in range(1 << m):
            total = sums[J] + sums[L]
            if total != 0 and _admits(total, item["t"]):
                violations.add((_indices(J, m), _indices(L, m)))
    return sizes, sum(sizes.values()), violations


def expected(item: dict) -> dict:
    """The answer a correct report gives for this manifest item."""
    n, m = item["n"], item["m"]
    dim = n + m
    if item["family"] == "torus":
        hodge = [[comb(dim, p) * comb(dim, q) for q in range(dim + 1)] for p in range(dim + 1)]
        betti = [comb(2 * dim, r) for r in range(2 * dim + 1)]
        pairs, violations = 4 ** m, set()
        kaehler = (_INCONCLUSIVE, [])
    else:
        sizes, pairs, violations = _pair_answer(item)
        hodge = [
            [
                sum(k * _binomial(n, p - j) * _binomial(n, q - l) for (j, l), k in sizes.items())
                for q in range(dim + 1)
            ]
            for p in range(dim + 1)
        ]
        betti = [
            sum(hodge[p][r - p] for p in range(dim + 1) if 0 <= r - p <= dim)
            for r in range(2 * dim + 1)
        ]
        kaehler = (_OBSTRUCTED, list(range(1, m + 1)))
    return {
        "hodge": hodge,
        "betti": betti,
        "pairs": pairs,
        "violations": violations,
        "kaehler": kaehler,
        "fiber": "not_checked" if item["family"] in ("example1", "scaled") else "ok",
    }


def _properties(table: list[list[int]], holds: bool) -> list[str]:
    size = len(table)
    problems = []
    if any(table[p][q] != table[size - 1 - p][size - 1 - q] for p in range(size) for q in range(size)):
        problems.append("table breaks Serre duality")
    if sum((-1) ** (p + q) * table[p][q] for p in range(size) for q in range(size)) != 0:
        problems.append("Euler characteristic is not 0")
    if holds and any(table[p][q] != table[q][p] for p in range(size) for q in range(size)):
        problems.append("condition holds but the table is not symmetric")
    return problems


def check(item: dict, answer: dict, report: dict) -> list[str]:
    """Every way the report differs from the answer; empty when it is right."""
    problems: list[str] = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, want {want!r}")

    try:
        expect("name", report["name"], item["name"])
        expect("mode", report["mode"], "float_fallback" if item["float_mode"] else "exact")
        expect("lattice_rank_ok", report["validation"]["lattice_rank_ok"], True)
        expect("fiber_preserved", report["validation"]["fiber_preserved"], answer["fiber"])
        expect("hodge", report["hodge"], answer["hodge"])
        expect("betti", report["betti"], answer["betti"])
        condition = report["condition"]
        holds = not answer["violations"]
        expect("condition.holds", condition["holds"], holds)
        expect("certified_de_rham", report["certified_de_rham"], holds)
        expect("checked_pairs", condition["checked_pairs"], answer["pairs"])
        got = [(tuple(v["J"]), tuple(v["L"])) for v in condition["violations"]]
        if len(set(got)) != len(got) or set(got) != answer["violations"]:
            problems.append(
                f"violations: got {len(got)}, want {len(answer['violations'])} (or a different set)"
            )
        expect("symmetry", report["symmetry"], True)
        expect("serre", report["serre"], True)
        flag = True if item["forms"] else None
        expect("wedge_closure", report["wedge_closure"], flag)
        expect("harmonic_certified", report["harmonic_certified"], flag)
        kaehler = report["kaehler"]
        expect("kaehler", (kaehler["status"], kaehler["witnesses"]), answer["kaehler"])
        expect("completely_solvable", kaehler["completely_solvable"], True)
        problems += _properties(report["hodge"], condition["holds"])
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"report lacks a field: {exc!r}")
    return problems


def selftest(items: list[dict], answers: list[dict], reports: list) -> list[str]:
    """Perturb passing reports; return the perturbations the checker missed.

    One report gets a Hodge entry off by one, one report with violations
    loses one of them.  Both must be counted as failed.  Reports that
    already fail are left alone: they are counted without this test.
    """
    passing = [
        (item, answer, report)
        for item, answer, report in zip(items, answers, reports)
        if report is not None and not check(item, answer, report)
    ]
    missed = []
    for item, answer, report in passing[:1]:
        bad = copy.deepcopy(report)
        bad["hodge"][1][0] += 1
        if not check(item, answer, bad):
            missed.append(f"{item['name']}: Hodge entry (1, 0) off by one")
    with_violations = [entry for entry in passing if entry[2]["condition"]["violations"]]
    for item, answer, report in with_violations[:1]:
        bad = copy.deepcopy(report)
        bad["condition"]["violations"].pop()
        if not check(item, answer, bad):
            missed.append(f"{item['name']}: one violation dropped")
    return missed
