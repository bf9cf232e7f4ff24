"""Import budget: loading the package pulls in no numeric stack.

Only CoPhy's LP uses scipy (and, through it, numpy), and it imports the
solver at its first solve.  Everything else -- the CLI, every other
advisor, the perfbench tasks -- must start without paying that load.
"""

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_CODE = """
import sys
import repro, repro.cli, repro.baselines, repro.core
print(" ".join(sorted(m for m in ("scipy", "numpy") if m in sys.modules)))
"""


def test_package_import_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    out = subprocess.run(
        [sys.executable, "-c", _CODE],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "", f"loaded at import: {out.stdout.strip()}"
