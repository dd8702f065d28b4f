"""NaN, infinities, signed zero and the float64 extremes, end to end.

Every registered engine must produce the output bytes and the cycle
count ``cycle`` does when special values sit in the operands.  Engines
come from the registry, so a new or removed backend needs no edit here.
"""

import functools

import numpy as np
import pytest

from repro.kernels import spmm_program, spmv_locate
from repro.lang import compile_expression

from blockkit import ENGINES

SPECIALS = {
    "nan": np.nan,
    "+inf": np.inf,
    "-inf": -np.inf,
    "-0.0": -0.0,
    "+1e308": 1e308,
    "-1e308": -1e308,
    "5e-324": 5e-324,
}


def _spmv(tensors, engine):
    crd, vals, cycles = spmv_locate(tensors["B"], tensors["c"], backend=engine)
    return np.asarray(crd, np.int64).tobytes() + np.asarray(vals).tobytes(), cycles


def _compiled(program):
    def run(tensors, engine):
        result = program().run(tensors, backend=engine)
        return result.to_numpy().tobytes(), result.cycles
    return run


#: name -> (runner returning (output bytes, cycles), operand shapes)
KERNELS = {
    "spmv": (_spmv, {"B": (7, 6), "c": (6,)}),
    "spmm_ikj": (_compiled(lambda: spmm_program("ikj")), {"B": (7, 6), "C": (6, 5)}),
    "spmm_ijk": (_compiled(lambda: spmm_program("ijk")), {"B": (7, 6), "C": (6, 5)}),
    "spmm_kij": (_compiled(lambda: spmm_program("kij")), {"B": (7, 6), "C": (6, 5)}),
    "add": (_compiled(lambda: compile_expression("X(i,j) = B(i,j) + C(i,j)")),
            {"B": (7, 6), "C": (7, 6)}),
    "dot": (_compiled(lambda: compile_expression("x = B(i,j) * C(i,j)")),
            {"B": (7, 6), "C": (7, 6)}),
}


def _operands(shapes, special):
    """Half-dense operands with *special* planted twice in each.

    Same-shaped operands get it at the same positions, so specials meet
    each other as well as ordinary values: inf * inf, inf + -inf across
    a reduction, 1e308 + 1e308 overflowing.
    """
    rng = np.random.default_rng(18)
    tensors = {}
    for name, shape in shapes.items():
        dense = rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], shape)
        dense[rng.random(shape) < 0.5] = 0.0
        flat = dense.reshape(-1)
        flat[1] = flat[-2] = special
        flat[2] = 1.5  # an ordinary neighbour for the special to combine with
        tensors[name] = dense
    return tensors


@functools.lru_cache(maxsize=None)
def _run(kernel, special, engine):
    runner, shapes = KERNELS[kernel]
    return runner(_operands(shapes, SPECIALS[special]), engine)


# overflow to inf and inf - inf are among the behaviours under test
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("special", SPECIALS)
@pytest.mark.parametrize("engine", ENGINES)
def test_special_values_match_cycle(engine, special):
    for kernel in KERNELS:
        want_bytes, want_cycles = _run(kernel, special, "cycle")
        got_bytes, got_cycles = _run(kernel, special, engine)
        assert got_bytes == want_bytes, kernel
        assert got_cycles == want_cycles, kernel
