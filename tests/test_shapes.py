"""The one operand-shape rule, at every public entry that takes a vector.

An operator's three applies, the band solve and run's x0, data and truth
take vectors of the operator's size n: each rejects every other shape
with a DimensionError that names its operand and (n,), before any work.
add_noise takes data y of any length n >= 1 and rejects what is not
1-D, and an empty y, at every noise level.  numkernel.dot takes two 1-D
operands of one length and names the one that breaks the rule.  The
inverse-potential operator is checked on a cold cache and on a warm one,
because np.ones((n, 1)) has the bytes of a cached np.ones(n).
"""

import re

import numpy as np
import pytest

from tgss.invpot import InversePotentialOperator, make_mesh
from tgss.numkernel import DimensionError, as_vector, dot, factorize_band_spd
from tgss.operator import DiagonalOperator, NoisyData, add_noise
from tgss.solvers import SolverConfig, run


def rejects(name, n, shape):
    message = rf"expected {name} of shape \({n},\), got {re.escape(str(shape))}$"
    return pytest.raises(DimensionError, match=message)


# Shapes other than (n,), as functions of n.
WRONG = {
    "()": lambda n: (),
    "(1,)": lambda n: (1,),
    "(n-1,)": lambda n: (n - 1,),
    "(n+1,)": lambda n: (n + 1,),
    "(n,1)": lambda n: (n, 1),
    "(n,2)": lambda n: (n, 2),
    "(n,1,1)": lambda n: (n, 1, 1),
}
# Shapes add_noise's y may not have: not 1-D, or empty.
NOT_DATA = {"()": (), "(0,)": (0,), "(n,1)": (9, 1), "(n,1,1)": (9, 1, 1), "(2,3)": (2, 3)}

OPERATORS = {
    "diagonal": lambda: DiagonalOperator(np.linspace(0.5, 1.0, 6)),
    "invpot1d": lambda: InversePotentialOperator(make_mesh(1, 8)),
    "invpot2d": lambda: InversePotentialOperator(make_mesh(2, 4)),
}
# Operand name and a call with v in that operand's place.
APPLIES = {
    "apply-c": ("coefficient", lambda op, v: op.apply(v)),
    "apply-c-out": ("coefficient", lambda op, v: op.apply(v, out=np.empty(op.n))),
    "derivative-c": ("coefficient", lambda op, v: op.derivative_apply(v, np.ones(op.n))),
    "derivative-q": ("direction", lambda op, v: op.derivative_apply(np.ones(op.n), v)),
    "adjoint-c": ("coefficient", lambda op, v: op.adjoint_apply(v, np.ones(op.n))),
    "adjoint-w": ("adjoint argument", lambda op, v: op.adjoint_apply(np.ones(op.n), v)),
    "adjoint-w-out": ("adjoint argument",
                      lambda op, v: op.adjoint_apply(np.ones(op.n), v, out=np.empty(op.n))),
}


def operator_entry(kind, cache, apply):
    def check(shape):
        make = OPERATORS[kind]
        op = make()
        if cache == "warm":
            op.apply(np.ones(op.n))
        name, call = APPLIES[apply]
        v = np.ones(shape(op.n))
        with rejects(name, op.n, v.shape):
            call(op, v)
        # The rejection leaves the operator, and its cache, as it was.
        np.testing.assert_array_equal(op.apply(np.ones(op.n)), make().apply(np.ones(op.n)))
    return check


class Counting(DiagonalOperator):
    calls = 0

    def apply(self, c, out=None):
        self.calls += 1
        return super().apply(c, out=out)


def run_entry(operand):
    def check(shape):
        # Each wrong operand broadcasts against 8 unknowns if it is not checked.
        op = Counting(np.linspace(0.2, 1.0, 8))
        args = {"x0": np.zeros(8), "data.y_delta": np.ones(8), "truth": np.ones(8)}
        args[operand] = np.ones(shape(8))
        with rejects(operand, 8, args[operand].shape):
            run("tgss-nes", op, NoisyData(args["data.y_delta"], 1e-2), args["x0"],
                SolverConfig(eta=0.0, tau=2.0, c_F=1.0), truth=args["truth"])
        assert op.calls == 0
    return check


def band_solve(shape):
    solve = factorize_band_spd(np.array([[2.0, 2.0, 2.0, 2.0], [-1.0, -1.0, -1.0, 0.0]]))
    f = np.ones(shape(4))
    with rejects("rhs", 4, f.shape):
        solve(f)
    np.testing.assert_allclose(solve(np.ones(4)), [2.0, 3.0, 3.0, 2.0])


def noise_entry(delta):
    def check(shape):
        y = np.ones(shape)
        with rejects("y", "n", y.shape):
            add_noise(y, delta, 0)
    return check


def cases():
    entries = {f"{kind}-{cache}-{apply}": operator_entry(kind, cache, apply)
               for kind in OPERATORS
               for cache in (("cold",) if kind == "diagonal" else ("cold", "warm"))
               for apply in APPLIES}
    entries.update({f"run-{operand}": run_entry(operand)
                    for operand in ("x0", "data.y_delta", "truth")})
    entries["band-solve"] = band_solve
    for entry, check in entries.items():
        for label, shape in WRONG.items():
            yield pytest.param(check, shape, id=f"{entry}-{label}")
    for delta in (0.0, 1e-2):
        for label, shape in NOT_DATA.items():
            yield pytest.param(noise_entry(delta), shape, id=f"add_noise-{delta:g}-{label}")


@pytest.mark.parametrize("check, shape", cases())
def test_wrong_shape_raises_dimension_error(check, shape):
    check(shape)


def test_as_vector_passes_a_float_vector_through():
    v = np.arange(3.0)
    assert as_vector(v, 3, "v") is v
    assert as_vector(v, None, "v") is v
    w = as_vector([1, 2], 2, "w")
    assert w.dtype == np.float64 and w.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("x_shape, y_shape, name, n", [
    ((2, 2), (2, 2), "x", "n"),
    ((2, 3), (2, 3), "x", "n"),
    ((), (), "x", "n"),
    ((3,), (), "y", 3),
    ((2,), (3,), "y", 2),
    ((3,), (3, 1), "y", 3),
    ((3, 1), (3,), "x", "n"),
    ((0,), (0,), "x", "n"),
], ids=["2x2", "2x3", "scalars", "y-scalar", "lengths-2-3", "y-column", "x-column", "empty"])
def test_dot_rejects_operands_that_are_not_vectors_of_one_length(x_shape, y_shape, name, n):
    x, y = np.ones(x_shape), np.ones(y_shape)
    with rejects(name, n, (x if name == "x" else y).shape):
        dot(x, y)


def test_dot_of_two_vectors_is_a_python_float():
    value = dot([1, 2], np.array([3.0, 4.0]))
    assert type(value) is float and value == 11.0
