"""Manifold description files: JSON schema, loading, and emission.

A file either spells out the full data

    { "name": str, "n": int, "m": int,
      "symbols": [{"name": str, "value": float}, ...],
      "alphas": [character, ...],
      "lattice": [[complex, ...], ...],
      "lattice_fiber": [[complex, ...], ...] | null }

or delegates to a builder: { "builder": "example1", "a": [1, -2],
"t_mode": "symbolic" }.  Any other key is refused, except a top-level
"schema_version" in a full file, which must be the integer 1 and which
emitted files carry.  Characters are either
explicit exponent vectors {"a": [complex...], "b": [complex...]} or the
real shorthand {"real_exp": [scalar...]} for exp(sum c_j x_j).  A complex
number is {"re": scalar, "im": scalar} and a scalar maps symbol names to
rational strings "p" or "p/q".

Loading errors carry the JSON path of the offending node so command-line
users get position-annotated diagnostics.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Union

from .exact import ComplexExact, ExactScalar, SymbolTable, capped, parse_rational
from .model import CharacterExponent, DimensionCapExceeded, LatticeBasis, SolvManifoldSpec, check_caps

__all__ = ["SpecFileError", "load_spec", "load_spec_dict", "save_spec", "spec_to_dict"]


class SpecFileError(ValueError):
    """A manifold description file is malformed; carries the JSON path."""

    def __init__(self, message: str, where: str = "$"):
        super().__init__(f"{where}: {message}")
        self.where = where


def _require(condition: bool, message: str, where: str):
    if not condition:
        raise SpecFileError(message, where)


def _scalar(table: SymbolTable, node: Any, where: str) -> ExactScalar:
    _require(isinstance(node, Mapping), "scalar literal must be an object", where)
    if not node:  # most literals of a spec are zeros
        return ExactScalar.zero(table)
    coeffs = {}
    for name, text in node.items():
        if name not in table:  # formats the message only for a bad literal
            raise SpecFileError(f"undeclared symbol {capped(repr(name))}", where)
        try:
            coeffs[name] = parse_rational(text)
        except (TypeError, ValueError):
            raise SpecFileError(
                f"bad rational literal {capped(repr(text))}", f"{where}.{capped(name)}"
            )
    scalar = ExactScalar.make(table, coeffs)
    _require(_is_finite(scalar.float_value), "scalar literal overflows a float", where)
    return scalar


def _is_finite(to_float) -> bool:
    """Whether ``to_float()`` is finite; converting an int or Fraction past the float range raises."""
    try:
        return math.isfinite(to_float())
    except OverflowError:
        return False


def _complex(table: SymbolTable, node: Any, where: str) -> ComplexExact:
    _require(isinstance(node, Mapping), "complex literal must be an object", where)
    if not node.keys() <= {"re", "im"}:
        raise SpecFileError(f"unknown complex fields {sorted(set(node) - {'re', 'im'})}", where)
    re = _scalar(table, node.get("re", {}), f"{where}.re")
    im = _scalar(table, node.get("im", {}), f"{where}.im")
    return ComplexExact(re, im)


def _character(table: SymbolTable, n: int, node: Any, where: str) -> CharacterExponent:
    _require(isinstance(node, Mapping), "character must be an object", where)
    if "real_exp" in node:
        _require(
            set(node) == {"real_exp"},
            'the "real_exp" shorthand cannot be mixed with explicit exponents',
            where,
        )
        coeffs = node["real_exp"]
        _require(isinstance(coeffs, list) and len(coeffs) == n,
                 f"real_exp must list {n} scalars", f"{where}.real_exp")
        scalars = [
            _scalar(table, c, f"{where}.real_exp[{j}]") for j, c in enumerate(coeffs)
        ]
        return CharacterExponent.from_real_exponent(table, scalars)
    _require(set(node) == {"a", "b"}, 'character needs fields "a" and "b"', where)
    vectors = []
    for key in ("a", "b"):
        entries = node[key]
        _require(isinstance(entries, list) and len(entries) == n,
                 f'"{key}" must list {n} complex numbers', f"{where}.{key}")
        vectors.append(
            tuple(
                _complex(table, entry, f"{where}.{key}[{j}]")
                for j, entry in enumerate(entries)
            )
        )
    return CharacterExponent(table, vectors[0], vectors[1])


def _lattice(table: SymbolTable, n: int, node: Any, where: str) -> LatticeBasis:
    _require(isinstance(node, list) and len(node) == 2 * n,
             f"lattice must list {2 * n} generators", where)
    generators = []
    for gi, gen in enumerate(node):
        _require(isinstance(gen, list) and len(gen) == n,
                 f"generator must list {n} complex numbers", f"{where}[{gi}]")
        generators.append(
            tuple(_complex(table, c, f"{where}[{gi}][{k}]") for k, c in enumerate(gen))
        )
    return LatticeBasis(n, tuple(generators))


def _symbol_table(node: Any, where: str) -> SymbolTable:
    table = SymbolTable.base()
    if node is None:
        return table
    _require(isinstance(node, list), "symbols must be a list", where)
    reserved = set()
    for si, entry in enumerate(node):
        here = f"{where}[{si}]"
        _require(isinstance(entry, Mapping) and {"name", "value"} <= set(entry),
                 'symbol entries need "name" and "value"', here)
        _check_keys(entry, ("name", "value"), here)
        name, value = entry["name"], entry["value"]
        _require(isinstance(name, str) and name, "symbol name must be a nonempty string", here)
        _require(type(value) in (int, float), "witness must be a JSON number", f"{here}.value")
        if name in ("one", "pi"):
            _require(name not in reserved, f"symbol {name!r} already declared", here)
            reserved.add(name)
            expected = 1.0 if name == "one" else math.pi
            _require(value == expected, f"reserved symbol {name!r} must have witness {expected!r}", here)
            continue
        _require(_is_finite(lambda: float(value)) and value != 0,
                 "witness must be a finite nonzero number", f"{here}.value")
        try:
            table = table.with_symbol(name, float(value))
        except ValueError as exc:
            raise SpecFileError(str(exc), here)
    return table


SCHEMA_VERSION = 1  # of the file schema; a full file may carry it, and no other value
_FIELDS = ("name", "n", "m", "symbols", "alphas", "lattice", "lattice_fiber", "schema_version")


def _check_keys(node: Mapping, allowed: tuple[str, ...], where: str):
    for key in node:
        _require(key in allowed, f"unknown field {capped(repr(key))}", f"{where}.{capped(key)}")


# builder name -> its parameters, in the order the builder of that name in ``manifold`` takes them
_BUILDERS = {"torus": ("n", "m"), "example1": ("a", "t_mode"), "example2_n1": ("A",)}


def _check_integers(node: Any, where: str):
    """Reject anything but a JSON integer (a bool is not one) or nested lists of them."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            _check_integers(item, f"{where}[{i}]")
    else:
        _require(type(node) is int, "expected a JSON integer", where)


def _build(node: Mapping) -> SolvManifoldSpec:
    """The one build path for named examples: builder nodes and ``emit-example`` both come here.

    The builder itself refuses an n + m past the counting cap before it builds anything.
    """
    name = node["builder"]
    _require(
        isinstance(name, str) and name in _BUILDERS, f"unknown builder {capped(repr(name))}", "$.builder"
    )
    keys = _BUILDERS[name]
    _check_keys(node, ("builder",) + keys, "$")
    for key, value in node.items():
        if key in ("n", "m", "a", "A") or (key == "t_mode" and isinstance(value, list)):
            _check_integers(value, f"$.{key}")
    from . import manifold  # the builders load with the first builder node

    values = {"n": 1, "m": 1, "a": [], "t_mode": "symbolic", "A": [], **node}
    try:
        return getattr(manifold, name)(*(values[key] for key in keys))
    except DimensionCapExceeded:  # a ValueError too, but exit 3, not a malformed file
        raise
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"builder {name!r} rejected its parameters: {exc}", "$")


def load_spec_dict(data: Any) -> SolvManifoldSpec:
    """Build a manifold from already parsed JSON data."""
    _require(isinstance(data, Mapping), "top level must be an object", "$")
    if "builder" in data:
        return _build(data)
    _check_keys(data, _FIELDS, "$")
    version = data.get("schema_version", SCHEMA_VERSION)
    _require(type(version) is int and version == SCHEMA_VERSION,
             f"schema version must be the integer {SCHEMA_VERSION}", "$.schema_version")
    for key in ("name", "n", "m", "alphas", "lattice"):
        _require(key in data, f'missing required field "{key}"', "$")
    name = data["name"]
    _require(isinstance(name, str) and name, '"name" must be a nonempty string', "$.name")
    for key in ("n", "m"):
        _require(type(data[key]) is int, "expected a JSON integer", f"$.{key}")
    n, m = data["n"], data["m"]
    _require(n >= 0 and m >= 0 and n + m >= 1, "need integer n, m >= 0 with n + m >= 1", "$")
    check_caps(n + m)
    table = _symbol_table(data.get("symbols"), "$.symbols")
    alphas_node = data["alphas"]
    _require(isinstance(alphas_node, list) and len(alphas_node) == m,
             f'"alphas" must list {m} characters', "$.alphas")
    alphas = tuple(
        _character(table, n, node, f"$.alphas[{i}]") for i, node in enumerate(alphas_node)
    )
    lattice = _lattice(table, n, data["lattice"], "$.lattice")
    fiber_node = data.get("lattice_fiber")
    fiber = None if fiber_node is None else _lattice(table, m, fiber_node, "$.lattice_fiber")
    try:
        return SolvManifoldSpec(
            name=name, n=n, m=m, alphas=alphas, lattice=lattice,
            lattice_fiber=fiber, symbols=table,
        )
    except ValueError as exc:
        raise SpecFileError(str(exc), "$")


def load_spec(path: Union[str, Path]) -> SolvManifoldSpec:
    """Load a manifold description file; raises SpecFileError on any defect.

    A file that cannot be opened or read raises the ``OSError`` of the attempt.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFileError(
                f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
            )
        except ValueError as exc:
            # an integer literal longer than the interpreter's int-string digit limit
            raise SpecFileError(f"invalid JSON: {capped(str(exc))}")
        return load_spec_dict(data)
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not UTF-8 text: {exc.reason}", f"byte {exc.start}")
    except RecursionError:
        # from the decoder, or (where it nests deeper than Python recurses, as
        # from 3.12 on) from the schema walk or the repr in a diagnostic
        raise SpecFileError("nested too deeply")


def spec_to_dict(spec: SolvManifoldSpec) -> dict:
    """Serialise to the schema in a form that reloads to an equal manifold."""

    def character(chi: CharacterExponent) -> dict:
        return {"a": [c.to_literal() for c in chi.a], "b": [c.to_literal() for c in chi.b]}

    def lattice(basis: LatticeBasis) -> list:
        return [[c.to_literal() for c in gen] for gen in basis.generators]

    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "n": spec.n,
        "m": spec.m,
        "symbols": [{"name": name, "value": value} for name, value in spec.symbols.entries],
        "alphas": [character(alpha) for alpha in spec.alphas],
        "lattice": lattice(spec.lattice),
        "lattice_fiber": None if spec.lattice_fiber is None else lattice(spec.lattice_fiber),
    }


def save_spec(spec: SolvManifoldSpec, path: Union[str, Path]):
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")
