"""Preset catalog, end-to-end determinism, CLI contract."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from sqzbeat import interferometer, rng, runner
from sqzbeat.cli import main
from sqzbeat.config import (
    BeamsConfig,
    ConfigError,
    DetectorConfig,
    config_hash,
    from_dict,
    list_presets,
    merge_config,
    preset_config,
    to_dict,
    validate_config,
)
from sqzbeat.dsp import (
    auto_periodogram,
    chain_floor,
    compensate_spectrum,
    hamming_power_from_moments,
    hamming_window,
)
from sqzbeat.fields import apply_squeezer, quadrature_series, sideband_gains
from sqzbeat.runner import run, run_preset

from helpers import frame_stream
from oracles import frame_spectrum

EXPECTED_PRESETS = {
    "fig3-raw",
    "fig4-demod",
    "appendixD-no-cross",
    "appendixG-straightforward",
    "appendixE-pump-sweep",
    "vacuum-selftest",
}


def test_preset_catalog_complete():
    names = [name for name, _ in list_presets()]
    assert sorted(names) == sorted(EXPECTED_PRESETS)
    for name, desc in list_presets():
        assert desc.strip()


def test_every_preset_expands_to_a_valid_config():
    for name in EXPECTED_PRESETS:
        validate_config(preset_config(name))


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("nope")


def test_config_roundtrip_and_hash():
    cfg = preset_config("fig3-raw")
    again = from_dict(json.loads(json.dumps(to_dict(cfg))))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    assert config_hash(replace(cfg, seed=cfg.seed + 1)) != config_hash(cfg)


def test_from_dict_reports_field_paths():
    data = to_dict(preset_config("fig3-raw"))
    data["grid"]["n_samples"] = 15
    with pytest.raises(ConfigError) as err:
        validate_config(from_dict(data))
    assert "grid.n_samples" in str(err.value)
    data = to_dict(preset_config("fig3-raw"))
    data["pickoff1"]["reflectivity"] = 0.0
    with pytest.raises(ConfigError) as err:
        validate_config(from_dict(data))
    assert "pickoff1.reflectivity" in str(err.value)
    with pytest.raises(ConfigError) as err:
        from_dict({"grid": {"bogus": 1}})
    assert "grid.bogus" in str(err.value)


def test_merge_config_patches_sections():
    cfg = preset_config("fig4-demod")
    patched = merge_config(cfg, {"grid": {"frames": 44}, "seed": 9})
    assert patched.grid.frames == 44
    assert patched.seed == 9
    assert patched.measurement == cfg.measurement


def test_merge_config_merges_nested_objects_field_by_field():
    cfg = preset_config("fig3-raw")
    patched = merge_config(cfg, {"pickoff1": {"squeezer": {"hwhm_hz": 5e6}}})
    squeezer = replace(cfg.pickoff1.squeezer, hwhm_hz=5e6)
    assert patched == replace(cfg, pickoff1=replace(cfg.pickoff1, squeezer=squeezer))
    # over a null section the patch object is the whole section
    assert preset_config("vacuum-selftest").pickoff1.squeezer is None
    with pytest.raises(ConfigError, match=r"pickoff1\.squeezer: .*pump_ratio"):
        merge_config(preset_config("vacuum-selftest"), {"pickoff1": {"squeezer": {"hwhm_hz": 5e6}}})


def _read_outputs(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_byte_identical_reruns_and_worker_invariance(tmp_path):
    # two chunks, the second ending in a partial block, so two workers map two jobs
    frames = 130
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    run_preset("vacuum-selftest", frames=frames, out_dir=str(a), workers=1)
    run_preset("vacuum-selftest", frames=frames, out_dir=str(b), workers=1)
    run_preset("vacuum-selftest", frames=frames, out_dir=str(c), workers=2)
    blobs_a = _read_outputs(a)
    assert set(blobs_a) == {
        "processed_reference.txt",
        "processed_target.txt",
        "spectrum_background.txt",
        "spectrum_reference.txt",
        "spectrum_target.txt",
        "summary.txt",
    }
    assert blobs_a == _read_outputs(b)
    assert blobs_a == _read_outputs(c)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each worker pool a run asks for.  A pool starts every
    worker at its first submit; a stand-in records the size asked for and
    maps in-process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


def test_worker_env_override(tmp_path, monkeypatch, pool_sizes):
    frames = 130  # two chunk jobs, so two workers make a pool
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_preset("vacuum-selftest", frames=frames, out_dir=str(a), workers=1)
    monkeypatch.setenv("SQZBEAT_WORKERS", "2")
    run_preset("vacuum-selftest", frames=frames, out_dir=str(b))
    assert pool_sizes == [2]
    assert _read_outputs(a) == _read_outputs(b)


def test_summary_records_effective_config_hash(tmp_path):
    cfg = preset_config("vacuum-selftest")
    summary = run(cfg, frames=25, seed=5, out_dir=str(tmp_path))
    assert summary.config_hash == config_hash(replace(cfg, grid=replace(cfg.grid, frames=25), seed=5))
    assert summary.frames == 25
    assert summary.seed == 5


@pytest.mark.parametrize(
    "name, overrides, path",
    [
        ("vacuum-selftest", {"frames": 2.7}, "grid.frames"),
        ("vacuum-selftest", {"frames": True}, "grid.frames"),
        ("vacuum-selftest", {"seed": 3.9}, "seed"),
        ("appendixE-pump-sweep", {"frames": 2.5}, "grid.frames"),
        ("vacuum-selftest", {"workers": 2.7}, "workers"),
        ("vacuum-selftest", {"workers": True}, "workers"),
        ("vacuum-selftest", {"workers": 2.0}, "workers"),
        ("appendixE-pump-sweep", {"workers": "2"}, "workers"),
    ],
    ids=["float-frames", "bool-frames", "float-seed", "float-sweep-frames", "float-workers", "bool-workers",
         "integral-float-workers", "str-workers"],
)
def test_run_rejects_overrides_that_are_not_integers(name, overrides, path, tmp_path):
    # the same values in a JSON config exit 2; run() must not truncate them
    with pytest.raises(ConfigError, match=f"^{path}: must be an integer"):
        run_preset(name, out_dir=str(tmp_path / "out"), **overrides)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["override", "field"])
def test_numpy_integer_frames_run_and_hash_like_int(where, tmp_path):
    cfg = preset_config("vacuum-selftest")
    two = replace(cfg, grid=replace(cfg.grid, frames=2))
    if where == "override":
        summary = run(cfg, frames=np.int64(2), out_dir=str(tmp_path / "numpy"))
    else:
        summary = run(replace(cfg, grid=replace(cfg.grid, frames=np.int64(2))), out_dir=str(tmp_path / "numpy"))
    assert summary.config_hash == config_hash(two)
    run(two, out_dir=str(tmp_path / "int"))
    assert _read_outputs(tmp_path / "numpy") == _read_outputs(tmp_path / "int")


def test_reduced_frame_run_consistent_with_larger_run(tmp_path):
    small = run_preset("vacuum-selftest", frames=150, out_dir=str(tmp_path / "small"))
    large = run_preset("vacuum-selftest", frames=500, out_dir=str(tmp_path / "large"))
    for bs, bl in zip(small.bands, large.bands):
        combined = np.hypot(bs.stderr_db, bl.stderr_db)
        assert abs(bs.reduction_db - bl.reduction_db) < 3.5 * combined


# Seeds of the pooled-pull test, fixed before it first ran.
PULL_SEEDS = range(7300, 7350)


def test_band_stderr_matches_the_scatter_over_seeds(tmp_path):
    # Each band's stderr_db must be the seed-to-seed scatter of its
    # reduction_db.  A pull is a band's reduction less its configuration's
    # mean over the seeds, over its stderr; pooled over 4 bands x 50 seeds,
    # with one degree of freedom per band spent on the mean, their SD must
    # be 1 within about 2.5 of its own standard errors (0.05).  A 1250-sample
    # grid at 32 frames keeps the 150 runs within a few seconds.
    pulls = []
    for name in ("fig3-raw", "fig4-demod", "appendixD-no-cross"):
        cfg = merge_config(preset_config(name), {"grid": {"n_samples": 1250}})
        bands = [run(cfg, frames=32, seed=seed, out_dir=str(tmp_path)).bands for seed in PULL_SEEDS]
        for band in zip(*bands):
            reductions = np.array([b.reduction_db for b in band])
            pulls.append((reductions - reductions.mean()) / [b.stderr_db for b in band])
    pulls = np.array(pulls)
    assert pulls.size >= 200
    sd = np.sqrt(np.sum(pulls**2) / (pulls.size - len(pulls)))
    assert 0.88 <= sd <= 1.12, sd


def _closes(summary):
    """Every band's measured reduction lies within 4 standard errors of its budget."""
    for band in summary.bands:
        assert abs(band.reduction_db - band.predicted_db) <= 4.0 * band.stderr_db, band


def test_unsqueezed_scheme_ignores_pickoff_squeezers(tmp_path):
    # the scheme decides: squeezers configured on the pickoffs of an
    # unsqueezed run inject vacuum, as its 0 dB budget says
    patch = {
        "pickoff1": {"squeezer": {"pump_ratio": 0.4}},
        "pickoff2": {"squeezer": {"pump_ratio": 0.4}},
    }
    summary = run(merge_config(preset_config("vacuum-selftest"), patch), frames=200, out_dir=str(tmp_path))
    for band in summary.bands:
        assert band.predicted_db == pytest.approx(0.0, abs=1e-12)
    _closes(summary)


@pytest.mark.parametrize(
    "squeezer",
    [{"angle_offset_rad": 0.5}, {"angle_jitter_rms_rad": 0.3}, {"angle_jitter_rms_rad": 0.6}],
    ids=["angle-offset", "angle-jitter", "large-angle-jitter"],
)
def test_squeeze_angle_errors_close_against_budget(squeezer, tmp_path):
    # a squeezer off its quadrature leaks anti-squeezing, and the run
    # measures what the budget predicts from the same squeezer specs
    cfg = preset_config("fig3-raw")
    patch = {
        name: {"squeezer": dict(to_dict(cfg)[name]["squeezer"], **squeezer)}
        for name in ("pickoff1", "pickoff2")
    }
    summary = run(merge_config(cfg, patch), frames=384, out_dir=str(tmp_path / "errors"))
    aligned = run(cfg, frames=4, out_dir=str(tmp_path / "aligned"))  # budgets do not depend on frames
    for band, ref in zip(summary.bands, aligned.bands):
        assert band.predicted_db < ref.predicted_db
    _closes(summary)


def test_angle_jitter_reuses_each_squeezers_gains(tmp_path):
    # a jittered squeezer turns its cached angle-free gains row by row, so
    # a run builds each squeezer's gains once, however many frames it has
    jitter = {"squeezer": {"angle_jitter_rms_rad": 0.05}}
    cfg = merge_config(preset_config("fig4-demod"), {"pickoff1": jitter, "pickoff2": jitter})
    sideband_gains.cache_clear()
    run(cfg, frames=130, workers=1, out_dir=str(tmp_path))
    info = sideband_gains.cache_info()
    assert 0 < info.misses <= 2
    assert info.hits > 0


def test_a_dark_acquisition_that_draws_no_port_runs_no_block(tmp_path, monkeypatch):
    # appendixG-straightforward's background has no electronic and no arm
    # noise, so its frames are exact zeros: it runs no block, and only the
    # reference's and target's blocks reach the detector readout
    readouts = []
    readout = interferometer.detector_readout

    def counted(dp, *args, **kwargs):
        readouts.append(bool(np.any(dp)))
        return readout(dp, *args, **kwargs)

    monkeypatch.setattr(runner, "detector_readout", counted)
    monkeypatch.setattr(interferometer, "detector_readout", counted)
    frames = 10
    run(preset_config("appendixG-straightforward"), frames=frames, workers=1, out_dir=str(tmp_path))
    assert readouts == [True] * (2 * -(-frames // runner.BLOCK_FRAMES))


def test_opo_sweep_outputs(tmp_path):
    summary = run_preset(
        "appendixE-pump-sweep", frames=120, out_dir=str(tmp_path), workers=1
    )
    assert summary.extras["opo.monotone_improvement"] == "true"
    for power in (50, 100, 200, 300):
        tag = f"pump{power:03d}mw"
        mc = float(summary.extras[f"opo.{tag}.band_avg_squeezed_db"])
        model = float(summary.extras[f"opo.{tag}.model_squeezed_db"])
        assert abs(mc - model) < 0.35
        assert (tmp_path / f"{tag}_squeezed.txt").exists()
        assert (tmp_path / f"{tag}_antisqueezed.txt").exists()


def test_a_sweep_at_0_mw_prints_0_db_unsigned(tmp_path):
    # the model squeezes nothing at 0 mW: -10 log10(1) is -0.0, printed as 0.0000
    cfg = merge_config(preset_config("appendixE-pump-sweep"), {"opo_sweep": {"pump_powers_mw": [0.0, 100.0]}})
    summary = run(cfg, frames=2, out_dir=str(tmp_path))
    assert summary.extras["opo.pump000mw.model_squeezed_db"] == "0.0000"
    assert "=-0.0000" not in (tmp_path / "summary.txt").read_text()


@pytest.mark.parametrize(
    "patch", [{}, {"opo_sweep": {"anchor_hz": 0.0}}], ids=["preset-anchor", "zero-anchor"]
)
def test_sweep_block_equals_the_full_field_path(patch):
    # A sweep block draws the 2m + 1 sidebands its quadratures read once
    # and yields, per frame, the moments of the vacuum quadratures' bins;
    # each power's gains map their sum to its periodograms.  Embedded in a
    # full field whose other bins hold arbitrary values, the block's frames
    # must give every power's summed periodograms through apply_squeezer,
    # quadrature_series and frame_spectrum, and zero beyond the mapped
    # bins.  At anchor 0, m = n/2 - 1, so the window's taps reach past the
    # Nyquist bin.
    cfg = merge_config(preset_config("appendixE-pump-sweep"), patch)
    ctx = runner._SweepContext(cfg)
    grid, frames = ctx.grid, range(5, 8)
    window, wnorm = hamming_window(grid.n_samples)
    gen = np.random.default_rng(12)
    got = next(ctx.periodograms([frames]))
    assert rng.RUN_SWEEP == 10
    assert set(got) == {"moments"} and got["moments"].shape == (len(frames), 2, 3, ctx.width + 2)
    moments = got["moments"].sum(axis=0)

    index, _, _ = sideband_gains(grid, ctx.specs[0])
    shape = (len(frames), grid.n_samples)
    full = 10.0 * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    for row, i in zip(full, frames):
        x = frame_stream(ctx.seed, rng.RUN_SWEEP, i, 0).standard_normal(2 * len(index))
        row[index] = np.sqrt(0.5 / grid.n_samples) * (x[: len(index)] + 1j * x[len(index) :])
    live = ctx.width
    assert live >= len(index) // 2 + 2
    for spec in ctx.specs:
        assert np.array_equal(sideband_gains(grid, spec)[0], index)
        quads = quadrature_series(grid, apply_squeezer(grid, full, spec), cfg.opo_sweep.anchor_hz)
        mapped = ctx.spectra(moments, spec)
        for p, q in zip(mapped, quads):  # squeezed, then anti-squeezed
            want = auto_periodogram(frame_spectrum(q, window), wnorm).sum(axis=0)
            assert np.max(np.abs(p[:live] - want[:live])) <= 1e-12 * np.max(want)
            assert np.max(want[live:], initial=0.0) <= 1e-12 * np.max(want)
            assert not np.any(p[live:])


def test_a_sweep_maps_each_powers_gains_once_per_run(monkeypatch, tmp_path):
    # the moments are summed over every frame first, so a power's gains
    # meet them once, however many chunks and blocks the run has
    calls = []

    def counted(moments, gains, wnorm):
        calls.append(gains[0, 0])
        return hamming_power_from_moments(moments, gains, wnorm)

    monkeypatch.setattr(runner, "hamming_power_from_moments", counted)
    run_preset("appendixE-pump-sweep", frames=130, out_dir=str(tmp_path), workers=1)  # two chunks
    assert len(calls) == len(preset_config("appendixE-pump-sweep").opo_sweep.pump_powers_mw) == 4
    assert len(set(calls)) == 4


def _sweep_outputs(out) -> tuple[dict, list]:
    """A sweep's spectrum files by name, without the config hash line, and
    its summary lines."""
    files = {
        f.name: [line for line in f.read_text().splitlines() if not line.startswith("# config_hash=")]
        for f in out.iterdir()
        if f.name != "summary.txt"
    }
    return files, (out / "summary.txt").read_text().splitlines()


def test_a_pump_power_sweeps_the_same_vacuum_alone_or_in_the_preset(tmp_path):
    # Every pump power squeezes the one vacuum row of a frame, so a power's
    # outputs depend on the seed and on that power, not on the others or on
    # its place in the list.  Only the config hash in the file headers
    # differs.  130 frames span two chunks, the second a partial block.
    run_preset("appendixE-pump-sweep", frames=130, out_dir=str(tmp_path / "all"))
    files, summary = _sweep_outputs(tmp_path / "all")
    for power in (100.0, 300.0):
        tag = f"pump{int(power):03d}mw"
        alone = merge_config(preset_config("appendixE-pump-sweep"), {"opo_sweep": {"pump_powers_mw": [power]}})
        run(alone, frames=130, out_dir=str(tmp_path / tag))
        got_files, got_summary = _sweep_outputs(tmp_path / tag)
        assert sorted(got_files) == sorted(name for name in files if name.startswith(tag + "_"))
        for name, lines in got_files.items():
            assert lines == files[name], name
        mine = [line for line in got_summary if line.startswith(f"opo.{tag}.")]
        assert len(mine) == 4 and mine == [line for line in summary if line.startswith(f"opo.{tag}.")]


def test_spectrum_files_have_headers(tmp_path):
    run_preset("vacuum-selftest", frames=30, out_dir=str(tmp_path))
    text = (tmp_path / "spectrum_reference.txt").read_text().splitlines()
    assert text[0].startswith("# config_hash=")
    assert any(line.startswith("# frames=") for line in text[:6])
    header_end = next(i for i, line in enumerate(text) if not line.startswith("#"))
    assert text[header_end] == "freq_hz,psd_db_rel_vacuum"
    first = text[header_end + 1].split(",")
    assert len(first) == 2


def test_processed_files_print_bins_below_the_chain_floor_at_the_clamp(monkeypatch, tmp_path):
    # Compensation divides bins below the chain's floor by the floor, so
    # their processed values are rounding residue: they print at the clamp,
    # and every file counts its clamped rows.  Above the floor a processed
    # row prints at the clamp only where the background subtraction left
    # nothing, as on a few target bins where the squeezed beat meets the
    # electronic noise.
    compensated = []

    def recording(values, h):
        compensated.append(compensate_spectrum(values, h))
        return compensated[-1]

    monkeypatch.setattr(runner, "compensate_spectrum", recording)
    run_preset("fig3-raw", frames=64, out_dir=str(tmp_path), workers=1)
    power, floor = chain_floor(runner._HeterodyneContext(preset_config("fig3-raw")).chain_h)
    below = power < floor
    assert np.count_nonzero(below) == 273
    ((background, reference, target),) = compensated
    lit = {"processed_reference": reference, "processed_target": target}
    for path in sorted(tmp_path.glob("*_*.txt")):
        lines = path.read_text().splitlines()
        header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        clamped = np.array([line.endswith(",-120.000000") for line in lines if line[0].isdigit()])
        assert int(header["clamped_bins"]) == np.count_nonzero(clamped), path.name
        if path.stem in lit:
            assert np.array_equal(clamped, below | (lit[path.stem] - background <= 0.0)), path.name


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert sorted(names) == sorted(EXPECTED_PRESETS)


@pytest.mark.parametrize(
    "argv, patch, error",
    [
        (["run", "--preset", "epr-identity"], None, "preset: unknown preset 'epr-identity'"),
        (["run", "--preset", "epr-identity", "--frames", "7"], None, "preset: unknown preset 'epr-identity'"),
        (["validate"], '{"kind": "epr"}', "kind: must be one of"),
        (["run"], '{"kind": "epr"}', "kind: must be one of"),
        (["run"], '{"kind": "epr", "epr": {"draws": 5}}', "kind: must be one of"),
        (["run", "--preset", "fig3-raw"], '{"epr": {"draws": 5}}', "epr: unknown field"),
    ],
    ids=["preset", "preset-frames", "validate-kind", "run-kind", "run-kind-section", "section-on-heterodyne"],
)
def test_cli_refuses_the_retired_identity_kind(argv, patch, error, tmp_path, capsys):
    # the sideband-recombination identity is a test (acceptance criterion 1), not a run kind
    if patch is not None:
        cfg_path = tmp_path / "epr.json"
        cfg_path.write_text(patch)
        argv = [*argv, "--config", str(cfg_path)]
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"config error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_and_validate(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "run", "--preset", "vacuum-selftest", "--frames", "20", "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "band.lower.reduction_db=" in stdout
    assert (out / "summary.txt").exists()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(to_dict(preset_config("vacuum-selftest"))))
    assert main(["validate", "--config", str(cfg_path)]) == 0

    bad = to_dict(preset_config("vacuum-selftest"))
    bad["scheme"] = "sideways"
    cfg_path.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(cfg_path)]) == 2


def test_cli_config_patch_over_preset(tmp_path):
    cfg_path = tmp_path / "patch.json"
    cfg_path.write_text(json.dumps({"grid": {"frames": 18}}))
    rc = main([
        "run", "--preset", "vacuum-selftest", "--config", str(cfg_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "summary.txt").read_text()
    assert "frames=18" in lines


@pytest.mark.parametrize("text, kind", [('"x"', "str"), ("[1]", "list"), ("null", "NoneType")])
def test_cli_validate_names_the_top_level(text, kind, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert f"config error: config: expected an object, got {kind}" in capsys.readouterr().err


def test_cli_errors():
    assert main(["run"]) == 2  # neither preset nor config
    assert main(["run", "--preset", "nope"]) == 2
    assert main(["validate", "--config", "/does/not/exist.json"]) == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--preset", "fig3-raw", "--frames", "2", "--out", "{file}"], "out_dir: {file} exists"),
        (["run", "--preset", "fig3-raw", "--config", "{dir}"], "{dir}: cannot read"),
        (["validate", "--config", "{dir}"], "{dir}: cannot read"),
        (["validate", "--config", "{latin}"], "{latin}: not UTF-8 text"),
    ],
    ids=["out-is-a-file", "run-config-is-a-directory", "validate-config-is-a-directory", "config-not-utf8"],
)
def test_cli_unusable_paths_are_config_errors(argv, named, tmp_path, capsys, monkeypatch):
    # each path is refused with exit 2 and its name, before any frame runs
    paths = {"file": tmp_path / "taken", "dir": tmp_path, "latin": tmp_path / "latin.json"}
    paths["file"].write_text("not a directory")
    paths["latin"].write_bytes(b"\xff\xfe{")

    def no_frames(*args):
        raise AssertionError("frames ran")

    monkeypatch.setattr(runner, "_accumulate_runs", no_frames)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert f"config error: {named.format(**paths)}" in capsys.readouterr().err
    assert paths["file"].read_text() == "not a directory"


def test_cli_degenerate_subtraction_exit_code(tmp_path):
    # Clipping far below the electronic noise turns every lit frame into a
    # square wave at the beat, whose band power falls below the dark
    # frames' clipped noise, so the subtraction degenerates on any seed.
    cfg = replace(
        preset_config("vacuum-selftest"),
        detector=DetectorConfig(quantum_efficiency=0.99, electronic_noise_rel_db=20.0, clip_level=1e3),
        grid=replace(preset_config("vacuum-selftest").grid, frames=25),
        seed=40,
    )
    cfg_path = tmp_path / "degenerate.json"
    cfg_path.write_text(json.dumps(to_dict(cfg)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3


def test_cli_rejects_non_finite_lo_phase(tmp_path, capsys):
    patch = tmp_path / "patch.json"
    patch.write_text('{"measurement": {"lo_phase_rad": Infinity}}')
    rc = main([
        "run", "--preset", "fig4-demod", "--frames", "2", "--config", str(patch),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "measurement.lo_phase_rad" in capsys.readouterr().err


def test_cli_rejects_non_integer_worker_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SQZBEAT_WORKERS", "abc")
    rc = main(["run", "--preset", "vacuum-selftest", "--frames", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert "SQZBEAT_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("env, workers, name", [("0", None, "SQZBEAT_WORKERS"), (None, -2, "workers")])
def test_worker_count_below_one_is_a_config_error(env, workers, name, monkeypatch, tmp_path):
    if env is not None:
        monkeypatch.setenv("SQZBEAT_WORKERS", env)
    with pytest.raises(ConfigError, match=f"^{name}: must be >= 1"):
        run_preset("vacuum-selftest", frames=2, workers=workers, out_dir=str(tmp_path))


@pytest.mark.parametrize("workers", [3, np.int64(2), np.uint8(1)], ids=["int", "int64", "uint8"])
def test_worker_counts_of_any_integer_type_resolve_to_int(workers):
    count = runner.resolve_workers(workers)
    assert count == workers and type(count) is int


def test_pool_is_no_larger_than_its_job_count(monkeypatch, tmp_path, pool_sizes):
    monkeypatch.setenv("SQZBEAT_WORKERS", "5000")
    run_preset("vacuum-selftest", frames=2, out_dir=str(tmp_path / "selftest"))  # one job runs without a pool
    run_preset("appendixE-pump-sweep", frames=2, out_dir=str(tmp_path / "sweep"))
    assert pool_sizes == []
    run_preset("appendixE-pump-sweep", frames=130, out_dir=str(tmp_path / "sweep"))  # 2 chunks
    run_preset("vacuum-selftest", frames=130, out_dir=str(tmp_path / "selftest"))  # 2 chunks, 3 acquisitions each
    assert pool_sizes == [2, 2]


@pytest.mark.parametrize(
    "preset, patch, path",
    [
        ("vacuum-selftest", '{"grid": {"frames": 1.5}}', "grid.frames"),
        ("vacuum-selftest", '{"grid": {"frames": true}}', "grid.frames"),
        ("vacuum-selftest", '{"seed": "abc"}', "seed"),
        ("vacuum-selftest", '{"detector": {"gain_ripple_db": NaN}}', "detector.gain_ripple_db"),
        ("vacuum-selftest", '{"measurement": {"bands": 5}}', "measurement.bands"),
        ("vacuum-selftest", '{"pickoff1": {"squeezer": {}}}', "pickoff1.squeezer"),
        ("appendixE-pump-sweep", '{"grid": {"sample_rate_hz": 1}}', "opo_sweep.anchor_hz"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"anchor_hz": -1e200}}', "opo_sweep.anchor_hz"),
        ("appendixE-pump-sweep", '{"grid": {"sample_rate_hz": 1e200}}', "opo_sweep.band_hz"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"band_hz": [70e6, 80e6]}}', "opo_sweep.band_hz"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"band_hz": [20e6, 1e6]}}', "opo_sweep.band_hz"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"band_hz": [40e6, 60e6]}}', "opo_sweep.band_hz"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"band_hz": [1e6, 60e6]}}', "opo_sweep.band_hz"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"pump_powers_mw": []}}', "opo_sweep.pump_powers_mw"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"pump_powers_mw": [100.2, 100.4]}}', "opo_sweep.pump_powers_mw[1]"),
        ("appendixE-pump-sweep", '{"opo_sweep": {"pump_powers_mw": [300, 100]}}', "opo_sweep.pump_powers_mw[1]"),
        (
            "vacuum-selftest",
            '{"measurement": {"normalization_band_hz": [6.001e6, 6.02e6]}}',
            "measurement.normalization_band_hz",
        ),
        ("vacuum-selftest", '{"grid": {"sample_rate_hz": 1e200}}', "measurement.bands[0]"),
        ("vacuum-selftest", '{"detector": {"electronic_noise_rel_db": 5000}}', "detector.electronic_noise_rel_db"),
        ("fig4-demod", '{"measurement": {"arm_noise_rel_db": 61}}', "measurement.arm_noise_rel_db"),
        ("fig4-demod", '{"measurement": {"arm_noise_excess_rel_db": 1e300}}', "measurement.arm_noise_excess_rel_db"),
        ("vacuum-selftest", '{"detector": {"gain_ripple_db": -5000}}', "detector.gain_ripple_db"),
        ("fig3-raw", '{"grid": {"n_samples": 1000000000000000000000000000000}}', "grid.n_samples"),
        ("fig4-demod", '{"beams": {"beat_freq_hz": 1e-300}}', "beams.beat_freq_hz"),
        ("vacuum-selftest", '{"beams": {"e2": 1e-300}}', "beams.e2"),
        ("appendixG-straightforward", '{"beams": {"e1": 1e300}}', "beams.e1"),
        ("fig3-raw", '{"pickoff1": {"injection_phase_rad": 0.5}}', "pickoff1.injection_phase_rad"),
        ("appendixE-pump-sweep", '{"scheme": "straightforward"}', "scheme"),
        ("appendixE-pump-sweep", '{"pickoff1": {"reflectivity": 0.5}}', "pickoff1"),
        ("vacuum-selftest", '{"kind": {}}', "kind"),
        ("fig3-raw", '{"kind": "epr"}', "kind"),
        ("appendixE-pump-sweep", '{"kind": "heterodyne"}', "kind"),
        ("fig3-raw", "[1]", "config"),
        ("vacuum-selftest", '{"name": "x\\nframes=99"}', "name"),
        ("fig3-raw", '{"measurement": {"bands": [{"label": "lower\\nseed=1", "center_hz": 6.89e6}]}}',
         "measurement.bands[0].label"),
        (
            "fig3-raw",
            '{"measurement": {"bands": [{"label": "lower", "center_hz": 6.89e6}, {"label": "lower", "center_hz": 13.11e6}]}}',
            "measurement.bands[1].label",
        ),
        ("fig3-raw", '{"grid": {"frames": 1000000000000000000000000000000}}', "grid.frames"),
        ("fig3-raw", '{"detector": {"quantum_efficiency": 5e-324}}', "detector.quantum_efficiency"),
        ("vacuum-selftest", '{"beams": {"anchor_hz": 70e6}}', "beams.anchor_hz"),
    ],
    ids=[
        "fractional-frames", "bool-frames", "string-seed", "nan-ripple",
        "scalar-bands", "squeezer-without-pump", "sweep-slow-grid", "sweep-anchor-outside",
        "sweep-bandless-grid", "sweep-band-past-nyquist", "sweep-band-reversed",
        "sweep-band-past-margin", "sweep-band-straddling-margin",
        "sweep-no-pumps", "sweep-colliding-pump-tags", "sweep-falling-pumps",
        "binless-normalization-band", "binless-analysis-band",
        "overflowing-db-level", "loud-arm-noise", "overflowing-arm-excess", "overflowing-ripple",
        "huge-frame", "sub-bin-beat", "vanishing-carrier", "overflowing-carrier",
        "removed-injection-phase", "sweep-scheme", "sweep-pickoff", "object-kind",
        "heterodyne-to-epr", "sweep-to-heterodyne", "list-patch", "summary-line-in-name", "summary-line-in-label",
        "repeated-label", "endless-frames", "vanishing-quantum-efficiency", "anchor-outside",
    ],
)
def test_cli_rejects_mistyped_or_out_of_range_values(preset, patch, path, tmp_path, capsys):
    cfg_path = tmp_path / "patch.json"
    cfg_path.write_text(patch)
    rc = main(["run", "--preset", preset, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{path}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_rejects_non_finite_values_in_every_section():
    cfg = preset_config("fig4-demod")
    for section, name in (
        ("beams", "mod_depth_rad"),
        ("detector", "electronic_noise_rel_db"),
        ("measurement", "arm_noise_rel_db"),
        ("grid", "sample_rate_hz"),
    ):
        bad = replace(cfg, **{section: replace(getattr(cfg, section), **{name: float("nan")})})
        with pytest.raises(ConfigError, match=f"{section}.{name}"):
            validate_config(bad)
    sq = replace(cfg.pickoff2.squeezer, hwhm_hz=float("inf"))
    with pytest.raises(ConfigError, match="pickoff2.squeezer.hwhm_hz"):
        validate_config(replace(cfg, pickoff2=replace(cfg.pickoff2, squeezer=sq)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
@pytest.mark.parametrize(
    "patch, message",
    [
        ('{"beams": {"e1": 1e200}}', "photocurrent samples must be finite"),
    ],
    ids=["overflowing-carrier"],
)
def test_cli_overflow_is_a_numerical_error(patch, message, tmp_path, capsys, monkeypatch):
    # the bounds table holds the carriers; lifted, the overflow reaches the run
    e1 = BeamsConfig.__dataclass_fields__["e1"]
    monkeypatch.setattr(e1, "metadata", {"bound": replace(e1.metadata["bound"], hi=float("inf"))})
    cfg_path = tmp_path / "patch.json"
    cfg_path.write_text(patch)
    rc = main([
        "run", "--preset", "vacuum-selftest", "--frames", "2", "--config", str(cfg_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert message in capsys.readouterr().err


class _NanBudget:
    reduction_db = float("nan")


@pytest.mark.parametrize(
    "name, stand_in, message",
    [
        ("band_budget", lambda cfg, freqs: _NanBudget(), "band.lower: non-finite values"),
        (
            "_db_rel",
            lambda values, norm: np.full(len(values), np.nan),
            "spectrum_background.txt: non-finite values",
        ),
    ],
    ids=["nan-prediction", "nan-spectrum"],
)
def test_non_finite_outputs_exit_3_and_write_nothing(name, stand_in, message, tmp_path, capsys, monkeypatch):
    # a nan that reaches a band or a spectrum stops the run before any file is opened
    monkeypatch.setattr(runner, name, stand_in)
    rc = main(["run", "--preset", "vacuum-selftest", "--frames", "2", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
