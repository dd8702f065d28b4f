"""repro: a reproduction of "The Sparse Abstract Machine" (ASPLOS 2023).

The package implements the SAM streaming dataflow abstraction for sparse
tensor algebra: the fibertree data model, hierarchical control-token
streams, the nine SAM dataflow block families, a cycle-approximate
simulator, a Custard-style compiler from tensor index notation to SAM
graphs, and the finite-memory tiling model used in the paper's ExTensor
recreation.

Quickstart::

    import numpy as np
    from repro import compile_expression, FiberTensor

    B = FiberTensor.from_numpy(np.eye(4), formats=("compressed", "compressed"))
    c = FiberTensor.from_numpy(np.arange(4.0), formats=("compressed",))
    prog = compile_expression("x(i) = B(i,j) * c(j)")
    result = prog.run({"B": B, "c": c})
    print(result.to_numpy())
"""

__version__ = "1.0.0"

from .formats import FiberTensor, scalar_tensor
from .streams import DONE, EMPTY, Stop

__all__ = [
    "DONE",
    "EMPTY",
    "FiberTensor",
    "Stop",
    "__version__",
    "compile_expression",
    "scalar_tensor",
]


def compile_expression(*args, **kwargs):
    """Compile tensor index notation to a runnable SAM program.

    Thin lazy wrapper over :func:`repro.lang.compile.compile_expression`
    (imported on first use to keep package import light).
    """
    from .lang.compile import compile_expression as _compile

    return _compile(*args, **kwargs)
