"""What importing the package costs every run.

Each scipy subpackage adds start-up time and resident memory to every
``fsm-mcmc`` process, so the set the CLI loads is pinned here: see the
``fsm_mcmc.analysis`` module docstring for why it is these two.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_LIST_SCIPY_SUBPACKAGES = """
import json, sys
import fsm_mcmc.cli
print(json.dumps(sorted(
    name.split(".")[1] for name, mod in sys.modules.items()
    if name.count(".") == 1 and name.startswith("scipy.")
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__"))))
"""


def test_cli_import_loads_only_scipy_special_and_linalg():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _LIST_SCIPY_SUBPACKAGES], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert set(json.loads(out.stdout)) == {"linalg", "special"}
