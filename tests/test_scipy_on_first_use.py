"""scipy is loaded on first use: when a scipy matrix is made or read.

Importing ``scipy.sparse`` costs a process CPU time and resident memory
(perfbench's ``table1_mix`` reads it in ``setup_s`` and ``peak_rss_mb``).
Compiling and running expressions, the Gamma kernel and the Table 1
study build no scipy object, so a process that does only that must never
load scipy.  The contract is counted, not timed: a fresh
interpreter imports every ``repro`` module, runs that path, and lists
the ``scipy`` modules in ``sys.modules`` — there must be none.

The converse holds too: the functions that make or read a scipy matrix
(``.mtx`` ingest, the ExTensor generator and model, tiling,
``from_scipy`` / ``to_scipy``) load it themselves, in a fresh
interpreter, and return what they return in this one.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data import write_mtx

#: prints the scipy modules loaded by the path that needs none
NO_SCIPY_PROBE = """
import importlib, json, pkgutil, sys
import numpy as np
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)

from repro.data import random_sparse_matrix
from repro.kernels.gamma import gamma_spmm
from repro.lang import compile_expression
from repro.sim import BACKENDS
from repro.studies.table1 import run_table1

B = random_sparse_matrix(5, 4, 0.5, seed=1)
C = random_sparse_matrix(4, 3, 0.5, seed=2)
c = np.array([0.5, 0.0, 2.0, 1.0])
program = compile_expression("x(i) = B(i,j) * c(j)")
for engine in (name for name, cls in BACKENDS.items() if cls.backend == name):
    got = program.run({"B": B, "c": c}, backend=engine).to_numpy()
    assert np.allclose(got, B @ c), engine
    assert np.allclose(gamma_spmm(B, C, backend=engine).output, B @ C), engine
assert len(run_table1()) == 12
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")))
"""

#: the imports every first-use call may name
FIRST_USE_IMPORTS = """
import numpy as np
from repro.data import CooTensor, extensor_matrix, read_mtx
from repro.formats import FiberTensor
from repro.memory.extensor import extensor_spmm_cycles
from repro.memory.tiling import TiledMatrix
"""

#: runs one call that makes or reads a scipy object; prints whether
#: scipy was loaded before and after it, and what the call returned
FIRST_USE_PROBE = """
import json, sys
{imports}
path = {path!r}
before = "scipy.sparse" in sys.modules
{call}
print(json.dumps([before, "scipy.sparse" in sys.modules, out]))
"""

DENSE = [[0.0, 1.5, 0.0, 2.0], [3.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 4.5]]

#: each makes or reads a scipy object and sets ``out`` to plain data
FIRST_USES = {
    "read_mtx": "coo = read_mtx(path)\n"
                "out = [coo.coords.tolist(), coo.values.tolist()]",
    "extensor_matrix": "m = extensor_matrix(300, 200, seed=4)\n"
                       "out = [m.indptr.tolist(), m.indices.tolist(), m.data.tolist()]",
    "extensor_spmm_cycles": "m = extensor_matrix(300, 200, seed=4)\n"
                            "out = vars(extensor_spmm_cycles(m, m))",
    "TiledMatrix": f"t = TiledMatrix(np.array({DENSE!r}), 2)\n"
                   "out = [t.tile_rows.tolist(), t.tile_cols.tolist(),\n"
                   "       t.tile_nnzs.tolist(), t.tile_nonempty_rows.tolist()]",
    "to_scipy/from_scipy": "coords = np.array([[0, 1], [2, 3], [2, 0]])\n"
                           "coo = CooTensor((3, 4), coords, np.arange(1.5, 4))\n"
                           "m = coo.to_scipy()\n"
                           "t = FiberTensor.from_scipy(m, name='B')\n"
                           "out = [m.toarray().tolist(), t.to_numpy().tolist()]",
}


def fresh(probe: str):
    """What a fresh interpreter running *probe* prints, parsed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_compile_run_gamma_and_table1_load_no_scipy():
    assert fresh(NO_SCIPY_PROBE) == []


@pytest.mark.parametrize("name", sorted(FIRST_USES))
def test_a_scipy_object_loads_scipy_on_first_use(name, tmp_path):
    path = write_mtx(str(tmp_path / "m.mtx"), np.array(DENSE))
    call = FIRST_USES[name]
    probe = FIRST_USE_PROBE.format(imports=FIRST_USE_IMPORTS, path=path, call=call)
    before, after, out = fresh(probe)
    assert (before, after) == (False, True)
    here = {"path": path}
    exec(FIRST_USE_IMPORTS + call, here)
    assert out == json.loads(json.dumps(here["out"]))
