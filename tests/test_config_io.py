"""Configuration parsing, CSV emission and SVG plotting."""

import dataclasses
import json

import numpy as np
import pytest

from susyrabi import config
from susyrabi.config import RunConfig, parse_config, validate
from susyrabi.errors import ConfigError
from susyrabi.fock import FockParams
from susyrabi.model import Schedule
from susyrabi.output import (
    FLOW_CSV_HEADER,
    emit_flow_csv,
    emit_flow_svg,
    emit_spectrum_csv,
)
from susyrabi.spectral import spectral_flow

OMEGA = 6.2832


@pytest.fixture(scope="module")
def small_flow():
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    grid = np.linspace(0.0, 1.0, 5)
    return spectral_flow(grid, [s.params(r) for r in grid], "r_sweep", 4, FockParams(64, 16))


def test_defaults():
    cfg = parse_config("{}")
    assert cfg == RunConfig()
    assert cfg.omega == 6.2832
    assert cfg.n_fock == 256 and cfg.buffer == 64
    assert cfg.sweep_points == 51 and cfg.k_levels == 7


def test_parse_overrides_and_sweep_block():
    cfg = parse_config(json.dumps({
        "c": 0.628,
        "n_fock": 128,
        "sweep": {"kind": "g", "start": 0.0, "stop": 31.4, "points": 11},
    }))
    assert cfg.c == 0.628
    assert cfg.n_fock == 128
    assert cfg.sweep_kind == "g"
    assert cfg.sweep_stop == pytest.approx(31.4)
    assert cfg.sweep_points == 11
    # Helpers hand out validated component objects.
    assert cfg.fock() == FockParams(128, 64)
    assert cfg.schedule().c == 0.628


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config('{"omga": 1.0}')
    with pytest.raises(ConfigError):
        parse_config('{"sweep": {"step": 0.1}}')


def test_parse_rejects_bad_types():
    with pytest.raises(ConfigError):
        parse_config('{"omega": "fast"}')
    with pytest.raises(ConfigError):
        parse_config('{"n_fock": 128.5}')
    with pytest.raises(ConfigError):
        parse_config('{"n_fock": true}')
    with pytest.raises(ConfigError):
        parse_config('{"sweep": 3}')
    with pytest.raises(ConfigError):
        parse_config('[1, 2]')
    with pytest.raises(ConfigError):
        parse_config('{"omega": 1.0')  # malformed JSON


def test_every_config_field_has_exactly_one_json_key():
    # A config with every field off its default, written as a JSON document
    # with the sweep_* fields in the nested "sweep" object.
    changed = RunConfig(
        omega=3.0, g_max=2.0, c=0.1,
        n_fock=128, buffer=32, sweep_kind="g", sweep_start=0.5, sweep_stop=0.9,
        sweep_points=11, k_levels=5, tol_degeneracy=1e-5,
        tol_convergence=1e-5, out_csv="flow.csv", out_svg="flow.svg",
    )
    keys = {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(changed, f.name)
        assert value != f.default, f.name
        if f.name.startswith("sweep_"):
            keys[f.name] = {"sweep": {f.name.removeprefix("sweep_"): value}}
        else:
            keys[f.name] = {f.name: value}
    # Each key alone sets exactly its own field.
    for name, doc in keys.items():
        cfg = parse_config(json.dumps(doc))
        moved = [f.name for f in dataclasses.fields(RunConfig)
                 if getattr(cfg, f.name) != getattr(RunConfig(), f.name)]
        assert moved == [name]
    # And the parser accepts no other key.
    accepted = [k for k in config._TOP_KEYS if k != "sweep"]
    accepted += [f"sweep_{k}" for k in config._SWEEP_KEYS]
    assert sorted(accepted) == sorted(keys)


@pytest.mark.parametrize("doc", [
    {"omega": 0.0},
    {"omega": -1.0},
    {"g_max": -0.1},
    {"c": -0.1},
    {"n_fock": 4},
    {"buffer": 200},
    {"sweep": {"points": 1}},
    {"sweep": {"start": 0.8, "stop": 0.2}},
    {"sweep": {"kind": "q"}},
    {"sweep": {"kind": "r", "stop": 1.5}},
    {"sweep": {"kind": "g", "start": -1.0, "stop": 2.0}},
    {"k_levels": 0},
    {"tol_degeneracy": 0.0},
    {"omega_a_schedule": "linear"},  # the r path is fixed: no longer a key
    {"g_schedule": "linear"},
    {"tol_algebra": 1e-10},
    {"out_csv": ""},
])
def test_validate_rejects(doc):
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_validate_accepts_defaults():
    assert validate(RunConfig()) == RunConfig()


def test_flow_csv_contract(tmp_path, small_flow):
    path = tmp_path / "flow.csv"
    emit_flow_csv(small_flow, path)
    lines = path.read_text().splitlines()
    assert lines[0] == FLOW_CSV_HEADER
    assert len(lines) == 1 + 5 * 4  # header + points x levels
    first = lines[1].split(",")
    assert first[0] == "r_sweep"
    assert first[1] == "0" and first[2] == "0"
    # Ground energy at r=0 is zero to eigensolver precision.
    assert abs(float(first[3])) < 1e-9
    assert first[6] == "64"
    assert first[7] == "false"


def test_flow_csv_numbers_carry_12_digits(tmp_path, small_flow):
    path = tmp_path / "flow.csv"
    emit_flow_csv(small_flow, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    k = len(small_flow.tables[0].energies)
    assert len(rows) == len(small_flow.grid) * k
    for point, (gval, table) in enumerate(zip(small_flow.grid, small_flow.tables)):
        block = rows[point * k:(point + 1) * k]
        assert {row[0] for row in block} == {small_flow.sweep_kind}
        np.testing.assert_allclose([float(row[1]) for row in block], gval, rtol=1e-11)
        assert [int(row[2]) for row in block] == list(range(k))
        np.testing.assert_allclose([float(row[3]) for row in block], table.energies,
                                   rtol=1e-11, atol=1e-11)
        want = [(gid, size) for gid, (_, size) in enumerate(table.groups) for _ in range(size)]
        assert [(int(row[4]), int(row[5])) for row in block] == want
        assert {int(row[6]) for row in block} == {table.n_fock_used}


def test_flow_csv_rewrite_is_byte_identical(tmp_path, small_flow):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_flow_csv(small_flow, p1)
    emit_flow_csv(small_flow, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_flow_csv_write_failure(tmp_path, small_flow):
    with pytest.raises(ConfigError):
        emit_flow_csv(small_flow, tmp_path / "no" / "such" / "dir.csv")


def test_spectrum_csv(tmp_path, small_flow):
    path = tmp_path / "spec.csv"
    emit_spectrum_csv(small_flow.tables[-1], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level_index,energy,group_id,group_size,n_fock,converged"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


def test_svg_plot(tmp_path, small_flow):
    path = tmp_path / "flow.svg"
    emit_flow_svg(small_flow, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 4  # one curve per level
    assert ">r</text>" in text  # x-axis label for an r-sweep
    assert "energy / hbar" in text
    assert text.count("level ") == 4  # legend entries


def test_svg_needs_two_points(tmp_path, small_flow):
    single = type(small_flow)(
        grid=small_flow.grid[:1],
        tables=small_flow.tables[:1],
        sweep_kind=small_flow.sweep_kind,
    )
    with pytest.raises(ConfigError):
        emit_flow_svg(single, tmp_path / "one.svg")
