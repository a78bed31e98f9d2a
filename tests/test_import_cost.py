"""What a run loads: no scipy, and no process pool on one worker.

Importing ``scipy.signal`` takes over a second and about 70 MB, and the
filter chain is designed in numpy, so scipy is a test-only reference.
The process pool's modules (``concurrent.futures.process`` and
``multiprocessing``) cost tens of milliseconds of start-up, and a
one-worker run never starts a pool.  Each check runs in a fresh
interpreter, since this test process has loaded those modules already.
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

ONE_WORKER = """
import sys
import tempfile

from sqzbeat.cli import main

with tempfile.TemporaryDirectory() as out:
    assert main(["run", "--preset", "fig4-demod", "--frames", "2", "--out", out]) == 0
loaded = sorted(m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules)
assert not loaded, loaded
"""


def _run_fresh(script, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqzbeat.__file__)))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_no_run_loads_scipy():
    proc = _run_fresh(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_a_one_worker_run_loads_no_process_pool():
    proc = _run_fresh(ONE_WORKER, SQZBEAT_WORKERS="1")
    assert proc.returncode == 0, proc.stderr
