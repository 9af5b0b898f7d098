"""homlie runs with sympy impossible to import.

The script runs in a fresh interpreter with sys.modules["sympy"] = None,
so any import of sympy raises ImportError there: invariant_form_space on
every algebra builtin and a seeded dense change of basis of each, then
`homlie validate` with the default checks on every builtin.
"""

import os
import subprocess
import sys
from pathlib import Path

import homlie

SCRIPT = """
import random, sys
sys.modules["sympy"] = None

from homlie.cli import main
from homlie.corpus import BUILTINS
from homlie.hom_lie import change_of_basis, invariant_form_space
from homlie.operators import left_mult_rep
from homlie.structure_io import builtin_structure
from homlie.tensor import Matrix

rng = random.Random(6)
for b in BUILTINS:
    s = builtin_structure(b.name)
    a = s.algebra if s.algebra is not None else left_mult_rep(s.lsa).base
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(a.dim)] for _ in range(a.dim)])
        if p.det() != 0:
            break
    for alg in (a, change_of_basis(a, p)):
        space = invariant_form_space(alg)
        print(b.name, space.has_nondegenerate, space.has_nondegenerate_symmetric)
    code = main(["validate", f"builtin:{b.name}"])
    assert code in (0, 1), (b.name, code)
assert sys.modules["sympy"] is None
assert not [m for m in sys.modules if m.startswith("sympy.")]
"""


def test_builtins_run_with_sympy_blocked():
    src = str(Path(homlie.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sl2 True True" in proc.stdout
    assert "aff2 False False" in proc.stdout
