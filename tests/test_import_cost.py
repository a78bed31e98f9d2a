"""scipy is loaded by a heterodyne run's filter design and by nothing else.

Importing ``scipy.signal`` takes over a second, so validation, pump
sweeps and EPR identity runs must not pay for it.  The check runs in a
fresh interpreter, since this test process has loaded scipy already.
"""

import os
import subprocess
import sys

import sqzbeat

SCRIPT = """
import sys
import tempfile

from sqzbeat.cli import main
from sqzbeat.config import list_presets, preset_config, validate_config


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


for name, _ in list_presets():
    validate_config(preset_config(name))
with tempfile.TemporaryDirectory() as out:
    assert main(["run", "--preset", "appendixE-pump-sweep", "--frames", "8", "--out", out]) == 0
    assert main(["run", "--preset", "epr-identity", "--frames", "2", "--out", out]) == 0
    assert not scipy_modules(), scipy_modules()[:5]
    assert main(["run", "--preset", "vacuum-selftest", "--frames", "2", "--out", out]) == 0
    assert "scipy.signal" in sys.modules
"""


def test_only_a_heterodyne_run_loads_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqzbeat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
