"""Property test of the input contract.

Every JSON patch over every preset, run at 2 frames through the command
line, ends in exit 0 (run), 2 (configuration error, nothing written) or 3
(numerical error), never in a traceback, and no file it writes holds a
``nan`` or ``inf``.  Patches replace one field of a preset, at any depth,
with a value of the wrong type, a non-finite number, an extreme
magnitude or an empty list, or swap the edges of a band.  The examples
are derandomized, so every run tries the same patches.
"""

import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqzbeat.cli import main
from sqzbeat.config import list_presets, preset_config, to_dict

settings.register_profile(
    "input-contract",
    derandomize=True,
    max_examples=800,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PRESETS = [name for name, _ in list_presets()]
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

# Replacement values by kind of patch; "swapped edges" reverses a band.
VALUES = {
    "wrong type": ["x", True, [1.0], {"a": 1}, None],
    "non-finite": [float("nan"), float("inf"), float("-inf")],
    "extreme magnitude": [1e300, -1e300, 1e-300, -1e-300, 0, -1, 10**30],
    "empty list": [[]],
}
KINDS = [*VALUES, "swapped edges"]


def _plain(name):
    return json.loads(json.dumps(to_dict(preset_config(name))))


def _paths(data, prefix=()):
    """Path of every field of a config's plain data, at any depth."""
    for key, value in data.items():
        path = prefix + (key,)
        yield path
        if isinstance(value, dict):
            yield from _paths(value, path)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                yield from _paths(item, path + (i,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _swapped(value):
    """The value with its band edges swapped, or None if it has none."""
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
        return value[::-1]
    if isinstance(value, dict) and "exclusion_half_width_hz" in value:
        return dict(
            value,
            half_width_hz=value["exclusion_half_width_hz"],
            exclusion_half_width_hz=value["half_width_hz"],
        )
    return None


@st.composite
def patches(draw):
    """(preset, patch): one field of the preset replaced, sent as its
    whole top-level section."""
    name = draw(st.sampled_from(PRESETS))
    data = _plain(name)
    kind = draw(st.sampled_from(KINDS))
    paths = sorted(_paths(data), key=repr)
    if kind == "swapped edges":
        paths = [p for p in paths if _swapped(_at(data, p)) is not None]
    path = draw(st.sampled_from(paths))
    parent = _at(data, path[:-1])
    if kind == "swapped edges":
        parent[path[-1]] = _swapped(parent[path[-1]])
    else:
        parent[path[-1]] = draw(st.sampled_from(VALUES[kind]))
    return name, {path[0]: data[path[0]]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's own overflow notices
@settings(settings.get_profile("input-contract"))
@given(patches())
def test_every_patch_exits_cleanly_without_non_finite_output(patch):
    name, body = patch
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "patch.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        out = os.path.join(tmp, "out")
        rc = main(["run", "--preset", name, "--frames", "2", "--config", cfg_path, "--out", out])
        assert rc in (0, 2, 3)
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if rc == 2:
            assert written == []
        for filename in written:
            with open(os.path.join(out, filename), encoding="utf-8") as fh:
                text = fh.read()
            assert not NON_FINITE.search(text), f"{filename} holds a non-finite value"
