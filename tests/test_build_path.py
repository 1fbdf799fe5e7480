"""Property test of the one build path for named examples.

``emit_example`` and a builder node in a spec file both go through
``specfile._build``.  For parameters drawn within the caps, the spec it
returns, the builder node loaded from data, the emitted schema reloaded,
and the builder called directly are all one manifold.  Parameters the
builder refuses, such as an example1 exponent whose half has no float, are
refused by the one path with the builder's message, so no spec that cannot
be reloaded is ever emitted.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvhodge as sh
from solvhodge.cli import emit_example
from solvhodge.specfile import SpecFileError, load_spec_dict, spec_to_dict

from conftest import HYPERBOLIC

nonzero = st.integers(-6, 6).filter(bool)
# a spec file stores a / 2: the first still has a float, the builder refuses the second
exponents = st.one_of(nonzero, st.sampled_from([3 * 10**308, -(10**309)]))
t_modes = st.one_of(
    st.just("symbolic"),
    st.builds(lambda r, s: f"rational_pi({r},{s})", nonzero, st.integers(1, 4)),
    st.lists(st.integers(1, 4), min_size=2, max_size=2),
)
tori = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda nm: 1 <= sum(nm) <= 6)

nodes = st.one_of(
    tori.map(lambda nm: ("torus", {"n": nm[0], "m": nm[1]})),
    st.tuples(st.lists(exponents, min_size=1, max_size=3), t_modes).map(
        lambda at: ("example1", {"a": at[0], "t_mode": at[1]})
    ),
    st.sampled_from(HYPERBOLIC).map(lambda A: ("example2_n1", {"A": A})),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(nodes)
def test_emit_example_and_builder_node_build_one_spec(node):
    name, params = node
    try:
        direct = getattr(sh, name)(*params.values())
    except ValueError as exc:
        with pytest.raises(SpecFileError, match=re.escape(str(exc))):
            emit_example(name, params, None)
        return
    emitted = emit_example(name, params, None)
    assert emitted == load_spec_dict({"builder": name, **params})
    assert emitted == load_spec_dict(spec_to_dict(emitted))
    assert emitted == direct
