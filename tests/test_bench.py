"""Benchmark runner: strict manifests, reproducible reports."""
import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values, or_junk
from sketchdec.bench import (
    REPORT_NOTE,
    _config,
    load_manifest,
    parse_manifest,
    render_text,
    run_manifest,
    write_report,
)
from sketchdec.errors import ManifestError, SketchdecError

FIG1_ROW = {
    "task": "fig1",
    "seed": 0,
    "decoder": "argmax",
    "width": 1,
    "alpha": 0.7,
    "beta": 0,
}


def row(**overrides) -> dict:
    merged = dict(FIG1_ROW)
    merged.update(overrides)
    return merged


def test_parse_accepts_the_bundled_manifest():
    path = resources.files("sketchdec").joinpath("data", "bench_manifest.json")
    rows = load_manifest(str(path))
    assert len(rows) == 10
    assert {r["task"] for r in rows} == {"fig1", "sudoku", "dungeon", "json"}


@pytest.mark.parametrize(
    "raw",
    [
        {"task": "fig1"},  # not a list
        ["fig1"],  # row not an object
        [{k: v for k, v in FIG1_ROW.items() if k != "seed"}],  # missing key
        [row(extra=1)],  # unknown key
        [row(task="crossword")],  # unknown task
        [row(decoder="dfs")],  # unknown decoder
        [row(backend="ngram")],  # fig1 has no ngram fixture
        [row(task="sudoku", backend="table")],  # sudoku takes no backend key
    ],
)
def test_parse_rejects_malformed_manifests(raw):
    with pytest.raises(ManifestError):
        parse_manifest(raw)


def test_load_rejects_missing_and_unparseable_files(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(bad)


def test_bad_width_surfaces_as_manifest_error():
    with pytest.raises(ManifestError):
        run_manifest([row(width=0)])


def test_run_is_deterministic_modulo_metadata():
    rows = [row(), row(decoder="var", width=2)]
    first = run_manifest(rows)
    second = run_manifest(rows)
    assert first.data() == second.data()
    assert "wall_time_s" in first.metadata
    assert "wall_time_s" not in first.data()


def test_task_filter():
    rows = [row(), row(task="json", decoder="var", width=2)]
    report = run_manifest(rows, task_filter="json")
    assert len(report.rows) == 1
    assert report.rows[0]["task"] == "json"
    assert run_manifest(rows, task_filter="dungeon").rows == ()


def test_report_rows_echo_configuration():
    report = run_manifest([row(decoder="beamvar", width=2)])
    out = report.rows[0]
    assert out["decoder"] == "beamvar" and out["width"] == 2
    assert out["metrics"]["duplicate"] is False


def test_render_text_is_stable():
    report = run_manifest([row()])
    a = render_text(report, include_metadata=False)
    b = render_text(run_manifest([row()]), include_metadata=False)
    assert a == b
    assert a.startswith(REPORT_NOTE)
    assert "duplicate=yes" in a
    assert "wall_time_s" not in a
    assert "wall_time_s" in render_text(report)


def test_write_report_round_trips(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([row()]), encoding="utf-8")
    report = run_manifest(load_manifest(manifest))
    json_path, txt_path = write_report(report, manifest)
    assert json_path.name == "m.json.report.json"
    assert txt_path.name == "m.json.report.txt"
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["note"] == REPORT_NOTE
    assert payload["rows"] == list(report.rows)
    assert txt_path.read_text(encoding="utf-8") == render_text(report)


# manifest rows with any field wrong in any way, some keys missing or extra
_rows = st.fixed_dictionaries(
    {},
    optional={
        "task": or_junk(st.sampled_from(["fig1", "sudoku", "dungeon", "json"])),
        "seed": or_junk(st.integers(-2, 3)),
        "decoder": or_junk(st.sampled_from(["argmax", "beam", "var", "beamvar"])),
        "width": or_junk(st.integers(-1, 3)),
        "alpha": or_junk(st.floats(-0.5, 1.5)),
        "beta": or_junk(st.floats(-1.0, 2.0)),
        "backend": or_junk(st.sampled_from(["table", "ngram"])),
        "extra": json_values,
    },
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, st.lists(or_junk(_rows), max_size=3)))
def test_parse_manifest_parses_or_raises_a_package_error(raw):
    """Every row parse_manifest accepts also makes a decoder configuration."""
    try:
        rows = parse_manifest(raw)
        for r in rows:
            _config(r)
    except SketchdecError:
        pass


@pytest.mark.parametrize("key", ["width", "seed", "alpha", "beta"])
@pytest.mark.parametrize("value", [None, "2", True, [1]])
def test_parse_rejects_mistyped_numbers(key, value):
    with pytest.raises(ManifestError, match=key):
        parse_manifest([row(**{key: value})])


def test_parse_rejects_non_finite_weights():
    for value in (float("nan"), float("inf"), 10**400):
        with pytest.raises(ManifestError):
            parse_manifest([row(alpha=value)])
        with pytest.raises(ManifestError):
            parse_manifest([row(beta=value)])
