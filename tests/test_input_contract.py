"""Tests of the input contract.

Every JSON patch over every preset, run at 2 frames through the command
line, ends in exit 0 (run), 2 (configuration error, nothing written) or 3
(numerical error), never in a traceback, and no file it writes holds a
``nan`` or ``inf``.  The property test patches one field of a preset, at
any depth, with a value of the wrong type, a non-finite number, an extreme
magnitude or an empty list, or swaps the edges of a band; its examples
are derandomized, so every run tries the same patches.  The edge tests
walk the bounds table on the config fields: a value just past a bound is
rejected naming that field, and a value at the edge inside runs through
the command line under the same contract.  The README's bounds list is
the table, rendered.
"""

import json
import math
import os
import re
import tempfile
import types
import typing
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqzbeat.cli import main
from sqzbeat.config import (
    CONFIG_TYPES,
    ConfigError,
    Interval,
    list_presets,
    merge_config,
    preset_config,
    to_dict,
    validate_config,
)

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
    paths = sorted(_paths(data), key=repr)
    swappable = [p for p in paths if _swapped(_at(data, p)) is not None]  # every preset has a band
    kind = draw(st.sampled_from(KINDS))
    path = draw(st.sampled_from(swappable if kind == "swapped edges" else paths))
    parent = _at(data, path[:-1])
    if kind == "swapped edges":
        parent[path[-1]] = _swapped(parent[path[-1]])
    else:
        parent[path[-1]] = draw(st.sampled_from(VALUES[kind]))
    return name, {path[0]: data[path[0]]}


def _run_cleanly(name, body):
    """Exit code of ``body`` over preset ``name`` at 2 frames through the
    command line, checked against the contract."""
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
            # the substring test first: the regex alone takes seconds on
            # the files of a 10^6-sample frame
            lower = text.lower()
            found = ("nan" in lower or "inf" in lower) and NON_FINITE.search(text)
            assert not found, f"{filename} holds a non-finite value"
    return rc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's own overflow notices
@settings(settings.get_profile("input-contract"))
@given(patches())
def test_every_patch_exits_cleanly_without_non_finite_output(patch):
    _run_cleanly(*patch)


# Validated configs that once ended in an overflow, by name.  They run
# under the tests' ``filterwarnings = error``, so a numpy overflow notice
# fails them too: the fully random squeeze angle (its contrast e^(-2 sigma^2)
# underflows to 0) and cavities so narrow that no sideband is squeezed.
NAMED = [
    pytest.param("fig4-demod", {"pickoff1": {"squeezer": {"angle_jitter_rms_rad": 1e300}}}, id="angle-jitter-1e300"),
    pytest.param("fig4-demod", {"pickoff1": {"squeezer": {"hwhm_hz": 1e-300}}}, id="pickoff-hwhm-1e-300"),
    pytest.param("fig4-demod", {"pickoff1": {"squeezer": {"hwhm_hz": 1e-310}}}, id="pickoff-hwhm-1e-310"),
    pytest.param("appendixE-pump-sweep", {"opo_sweep": {"hwhm_hz": 1e-300}}, id="sweep-hwhm-1e-300"),
    pytest.param("appendixE-pump-sweep", {"opo_sweep": {"hwhm_hz": 1e-310}}, id="sweep-hwhm-1e-310"),
]


@pytest.mark.parametrize("name, body", NAMED)
def test_a_named_validated_config_runs(name, body):
    assert _run_cleanly(name, body) == 0


def _bounded_fields(tp, keys=()):
    """(keys, bound, value type) of every bounded field under config type
    ``tp``, in declaration order; a list entry is reached at index 0."""
    hints = typing.get_type_hints(tp)
    for f in fields(tp):
        sub, value_tp = keys + (f.name,), hints[f.name]
        if isinstance(value_tp, types.UnionType):  # X | None
            (value_tp,) = [a for a in typing.get_args(value_tp) if a is not type(None)]
        if typing.get_origin(value_tp) is tuple:
            sub, value_tp = sub + (0,), typing.get_args(value_tp)[0]
        if "bound" in f.metadata:
            yield sub, f.metadata["bound"], value_tp
        if is_dataclass(value_tp):
            yield from _bounded_fields(value_tp, sub)


def _dotted(keys, index="0"):
    return "".join(f"[{index}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


TABLE = {}  # dotted path, list entries at index 0 -> (keys, bound, value type)
for _tp in CONFIG_TYPES.values():
    for _keys, _bound, _type in _bounded_fields(_tp):
        TABLE.setdefault(_dotted(_keys), (_keys, _bound, _type))


def _patch(keys, value):
    """(preset, patch) that sets ``keys`` to ``value`` over the first
    preset that sets the field, else the first that holds its parent, or
    None when no preset reaches it."""
    cases = []
    for name in PRESETS:
        data = _plain(name)
        try:
            parent = _at(data, keys[:-1])
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(parent, (dict, list)):
            unset = parent[keys[-1]] is None
            parent[keys[-1]] = value
            cases.append((unset, name, {keys[0]: data[keys[0]]}))
    return min(cases, key=lambda case: case[0])[1:] if cases else None


def _step(x, toward, tp):
    """The next value of type ``tp`` after ``x`` in the direction of ``toward``."""
    if tp is int:
        return x + (1 if toward > x else -1)
    return math.nextafter(x, toward)


def _edges(bound, tp):
    """(values just outside, values at the edge inside) of a bound."""
    if not isinstance(bound, Interval):  # a pattern
        return ["", "x y"], ["x"]
    outside, inside = [], []
    for end, is_open, away in ((bound.lo, bound.lo_open, -math.inf), (bound.hi, bound.hi_open, math.inf)):
        if math.isfinite(end):
            outside.append(end if is_open else _step(end, away, tp))
            inside.append(_step(end, -away, tp) if is_open else end)
    return outside, inside


OUTSIDE, INSIDE = [], []
for _path, (_keys, _bound, _type) in TABLE.items():
    _outside, _inside = _edges(_bound, _type)
    for _values, _cases in ((_outside, OUTSIDE), (_inside, INSIDE)):
        for _value in _values:
            _case = _patch(_keys, _value)
            if _case is not None:
                _cases.append(pytest.param(_path, *_case, id=f"{_path}={_value!r}"))


@pytest.mark.parametrize("path, name, body", OUTSIDE)
def test_a_value_past_a_bound_is_rejected_naming_its_field(path, name, body):
    with pytest.raises(ConfigError) as err:
        validate_config(merge_config(preset_config(name), body))
    assert err.value.path == path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's own overflow notices
@pytest.mark.parametrize("path, name, body", INSIDE)
def test_a_value_at_a_bound_exits_cleanly(path, name, body, capsys):
    rc = _run_cleanly(name, body)
    if rc == 2:  # another rule may reject the edge value, never its own bound
        assert not capsys.readouterr().err.startswith(f"config error: {path}:")


def test_every_bounded_field_has_edge_cases():
    reached = {case.values[0] for case in OUTSIDE} & {case.values[0] for case in INSIDE}
    assert reached == set(TABLE)


def test_readme_lists_the_bounds_table():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    listed = [line for line in section.splitlines() if line.startswith("- ")]
    rendered = [f"- `{_dotted(keys, 'i')}` must {bound}" for keys, bound, _ in TABLE.values()]
    assert listed == rendered
