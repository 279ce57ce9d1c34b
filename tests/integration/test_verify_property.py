"""Property test: every generated expression kernel passes the full
static-verification pipeline (no error diagnostics, bounds guard in
place) for random well-formed expressions."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codegen import build_expression_kernel
from repro.core.expr import shift
from repro.diagnostics import errors
from repro.ptx.verifier import run_passes
from repro.qdp.fields import latt_complex
from repro.qdp.lattice import Lattice

_slow = settings(max_examples=25,
                 suppress_health_check=[HealthCheck.too_slow],
                 deadline=None)


@pytest.fixture(scope="module")
def flds(ctx):
    lat = Lattice((4, 4, 4, 4))
    return latt_complex(lat), latt_complex(lat), latt_complex(lat)


# A random expression tree: leaves are field references, shifted field
# references (shift applied to leaves only — the evaluator's
# normalized form), or scalar-scaled fields; inner nodes are + - *.
_leaf = st.one_of(
    st.tuples(st.just("f"), st.sampled_from([0, 1])),
    st.tuples(st.just("shift"), st.sampled_from([0, 1]),
              st.integers(min_value=0, max_value=3),
              st.sampled_from([+1, -1])),
    st.tuples(st.just("scale"), st.sampled_from([0, 1]),
              st.floats(min_value=-2.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False)),
)
_tree = st.recursive(
    _leaf,
    lambda kids: st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
    max_leaves=8)


def _interp(tree, fields):
    kind = tree[0]
    if kind == "f":
        return fields[tree[1]].ref()
    if kind == "shift":
        return shift(fields[tree[1]].ref(), tree[3], tree[2])
    if kind == "scale":
        return fields[tree[1]].ref() * tree[2]
    op, left, right = tree
    a, b = _interp(left, fields), _interp(right, fields)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


@_slow
@given(tree=_tree, subset_mode=st.booleans())
def test_generated_kernels_verify_clean(flds, tree, subset_mode):
    expr = _interp(tree, flds)
    module = build_expression_kernel("prop_verify", expr, flds[2],
                                     subset_mode)
    diagnostics = run_passes(module)
    assert not errors(diagnostics), [d.render() for d in diagnostics]
    # the generator's tid < nsites guard must dominate every access
    assert not [d for d in diagnostics if d.pass_name == "proven-bounds"]
