"""Per-layer timers interposed on sqzbeat's public functions and numpy.fft.

The package imports functions by name (``from .fields import
make_vacuum_field``), so a timer on the defining module alone would miss
most calls.  ``Tracer.install`` replaces every binding of each timed
function in every loaded ``sqzbeat`` module, and the four FFTs in
``numpy.fft``; ``uninstall`` puts the originals back.

A layer's self time is its call's duration minus the time of the timed
calls nested inside it, so the self times of one traced ``runner.run``
add up to its wall time, the timers' own cost aside.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer name -> (defining module, function names).  A layer with several
# functions, like numpy.fft, sums them.
LAYERS = {
    "rng.substream": ("sqzbeat.rng", ("substream",)),
    "rng.generator": ("sqzbeat.rng", ("generator",)),
    "fields.make_vacuum_field": ("sqzbeat.fields", ("make_vacuum_field",)),
    "fields.apply_loss": ("sqzbeat.fields", ("apply_loss",)),
    "fields.apply_squeezer": ("sqzbeat.fields", ("apply_squeezer",)),
    "fields.quadrature_series": ("sqzbeat.fields", ("quadrature_series",)),
    "interferometer.pickoff_noise_field": ("sqzbeat.interferometer", ("pickoff_noise_field",)),
    "interferometer.compose_beam": ("sqzbeat.interferometer", ("compose_beam",)),
    "interferometer.balanced_detect": ("sqzbeat.interferometer", ("balanced_detect",)),
    "numpy.fft": ("numpy.fft", ("fft", "ifft", "rfft", "irfft")),
    "dsp.chain_response": ("sqzbeat.dsp", ("chain_response",)),
    "dsp.compensate_spectrum": ("sqzbeat.dsp", ("compensate_spectrum",)),
    "dsp.postprocess": ("sqzbeat.dsp", ("postprocess",)),
    "config.from_dict": ("sqzbeat.config", ("from_dict",)),
    "budgets.heterodyne_budget": ("sqzbeat.budgets", ("heterodyne_budget",)),
    "runner.run": ("sqzbeat.runner", ("run",)),
}


class Tracer:
    """Counts calls and accumulates self time per layer while installed."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._nested = []  # time of timed calls inside each open call
        self._patched = []  # (module, attribute, original)

    def reset(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)

    def _timed(self, layer: str, fn):
        nested = self._nested

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = nested.pop()
                self.calls[layer] += 1
                self.self_s[layer] += dt - inner
                if nested:
                    nested[-1] += dt

        return timed

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            mod = importlib.import_module(module)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._timed(layer, fn)
        modules = [m for n, m in list(sys.modules.items()) if n == "sqzbeat" or n.startswith("sqzbeat.")]
        modules.append(sys.modules["numpy.fft"])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
