"""No run loads scipy.

Importing ``scipy.signal`` takes over a second and about 70 MB, and the
filter chain is designed in numpy, so scipy is a test-only reference.
The check runs every preset in a fresh interpreter where importing scipy
fails, since this test process has loaded scipy already.
"""

import os
import subprocess
import sys

import sqzbeat

SCRIPT = """
import sys
import tempfile

sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError

from sqzbeat.cli import main
from sqzbeat.config import list_presets

with tempfile.TemporaryDirectory() as out:
    for name, _ in list_presets():
        code = main(["run", "--preset", name, "--frames", "2", "--out", out])
        assert code == 0, (name, code)
"""


def test_no_run_loads_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqzbeat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
