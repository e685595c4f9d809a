"""CLI dispatch, configuration handling, output artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyporb
from hyporb.cli import RunConfig, cmd_bounds, f12, load_config, main
from hyporb.maps import get_map
from hyporb.orbifolds import build_associated_orbifold


def run(args):
    return main(args)


def test_show_config(capsys):
    assert run(["show-config"]) == 0
    out = capsys.readouterr().out
    assert "map = cosh" in out
    assert "depth = 8" in out
    assert run(["show-config", "--set", "depth=5"]) == 0
    assert "depth = 5" in capsys.readouterr().out.splitlines()


def test_unknown_key_is_usage_error(capsys):
    assert run(["bounds", "--set", "bogus=1"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_set_without_equals_is_usage_error(capsys):
    assert run(["bounds", "--set", "depth"]) == 64
    assert "--set" in capsys.readouterr().err


def test_bad_command_is_usage_error():
    assert run(["frobnicate"]) == 64


def test_w_points_beyond_grid_is_usage_error(tmp_path, capsys):
    # w = 0.001*j reaches 1 at j = 1000: rejected, not silently truncated
    assert run(["bounds", "--output", str(tmp_path), "--set", "w_points=1000"]) == 64
    assert "w_points" in capsys.readouterr().err
    assert not (tmp_path / "bounds.json").exists()


@pytest.mark.parametrize(
    "command, setting, key",
    [
        ("separation", ["--set", "K=nan"], "K"),
        ("separation", ["--set", "escape_radius=nan"], "escape_radius"),
        ("expansion", ["--set", "sample_r_max=inf"], "sample_r_max"),
        ("separation", ["--map", "frob"], "map"),
        ("bounds", ["--set", "r_min=9"], "r_min"),
        ("bounds", ["--set", "r_points=1"], "r_points"),
        ("separation", ["--set", "escape_radius=0.5"], "escape_radius"),
        ("separation", ["--set", "escape_radius=1.0"], "escape_radius"),
        ("expansion", ["--set", "margin_rel=0.01"], "margin_rel"),
        ("orbifold", ["--set", "seed=-1"], "seed"),
    ],
    ids=["nan-K", "nan-escape-radius", "infinite-sample-r-max", "unknown-map",
         "r-min-above-r-max", "one-r-point", "escape-radius-below-1", "escape-radius-1",
         "removed-margin-rel-key", "negative-seed"],
)
def test_non_finite_value_or_unknown_map_is_usage_error(tmp_path, capsys, command, setting, key):
    assert run([command, "--output", str(tmp_path)] + setting) == 64
    assert key in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_empty_scale_range_is_usage_error(tmp_path, capsys):
    argv = ["expansion", "--output", str(tmp_path), "--set", "scale_min_exp=5",
            "--set", "scale_max_exp=4"]
    assert run(argv) == 64
    assert "scale_min_exp" in capsys.readouterr().err
    assert not (tmp_path / "expansion.json").exists()


def test_malformed_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text in ("depth 12\n", "depth = twelve\n", "unknown_key = 3\n"):
        cfg.write_text(text)
        assert run(["bounds", "--config", str(cfg)]) == 64
        assert "run.cfg:1" in capsys.readouterr().err


def test_output_naming_a_file_is_usage_error(tmp_path, capsys):
    # a file where the output directory should go is the caller's mistake, not an internal error
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for output in (taken, taken / "sub"):
        assert run(["separation", "--map", "pi_sinh", "--output", str(output)]) == 64
        assert "cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_unwritable_artifact_is_usage_error(tmp_path, capsys):
    # a directory where an artifact should go is the caller's mistake, not an internal error
    (tmp_path / "separation.json").mkdir()
    assert run(["separation", "--map", "pi_sinh", "--output", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "cannot write" in err and str(tmp_path / "separation.json") in err


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nmap = pi_sinh\ndepth = 6\nK = 3.5\n")
    cfg = load_config(str(cfg_file))
    assert cfg.map == "pi_sinh" and cfg.depth == 6 and cfg.K == 3.5


def test_bounds_artifacts(tmp_path):
    assert run(["bounds", "--output", str(tmp_path)]) == 0
    csv = (tmp_path / "bounds.csv").read_text().splitlines()
    assert csv[0] == "R,Lambda"
    assert len(csv) == 161
    payload = json.loads((tmp_path / "bounds.json").read_text())
    assert payload["passed"] is True
    assert payload["worst_slack"] <= 1e-10


def test_bounds_reports_violations_with_exit_2(monkeypatch, tmp_path):
    import hyporb.cli as cli
    from hyporb.bounds import BoundChainResult, ChainViolation

    fake = BoundChainResult(
        samples=[], violations=[ChainViolation(0.5, 2, "forced", 1.0)], worst_slack=1.0
    )
    monkeypatch.setattr(cli.bnd, "verify_bound_chain", lambda *a, **k: fake)
    assert cmd_bounds(RunConfig(output=str(tmp_path))) == 2


def test_separation_artifacts(tmp_path):
    assert run(["separation", "--output", str(tmp_path), "--map", "pi_sinh"]) == 0
    payload = json.loads((tmp_path / "separation.json").read_text())
    assert abs(payload["report"]["epsilon_star"] - 1.0) < 1e-9


def test_basin_artifacts(tmp_path):
    assert run(["basin", "--output", str(tmp_path), "--map", "cosh_minus_one"]) == 0
    payload = json.loads((tmp_path / "basin.json").read_text())
    assert payload["absorbing_discs"][0]["radius"] == 0.5
    assert run(["basin", "--output", str(tmp_path), "--map", "cosh"]) == 0
    payload = json.loads((tmp_path / "basin.json").read_text())
    assert payload["absorbing_discs"] == []


@pytest.mark.parametrize(
    "map_name, centers",
    [("cosh", []), ("pi_sinh", []), ("cosh_minus_one", [[0.0, 0.0]])],
)
def test_basin_discs_are_the_removed_discs_of_the_orbifold(tmp_path, map_name, centers):
    # cmd_basin and build_associated_orbifold read one attracting-cycle rule
    cfg = RunConfig()
    assert run(["basin", "--output", str(tmp_path), "--map", map_name]) == 0
    payload = json.loads((tmp_path / "basin.json").read_text())
    basin = [d["center"] for d in payload["absorbing_discs"]]
    base, _ = build_associated_orbifold(get_map(map_name), cfg.depth, cfg.escape_radius)
    removed = base.surface.holes
    assert basin == [[f12(c.real), f12(c.imag)] for c, _ in removed] == centers


def test_homotopy_artifacts(tmp_path):
    assert run(["homotopy", "--output", str(tmp_path), "--set", "homotopy_n_max=3"]) == 0
    csv = (tmp_path / "homotopy.csv").read_text().splitlines()
    assert csv[0] == "d,n,sign,length,winding,limit"
    assert len(csv) == 1 + 3 * 4 * 2


def test_pullback_artifacts(tmp_path):
    assert run(["pullback", "--output", str(tmp_path), "--set", "pullback_kmax=4"]) == 0
    payload = json.loads((tmp_path / "pullback.json").read_text())
    assert payload["monotone_after_burn_in"] is True
    assert payload["forward_residual"] <= 1e-8


def test_pullback_from_a_value_beyond_the_float_range_names_not_found(tmp_path, capsys):
    args = ["pullback", "--output", str(tmp_path), "--map", "pi_sinh",
            "--set", "pullback_re_a=1.5e308", "--set", "pullback_imag=1.5e308"]
    assert run(args) == 70
    assert "NotFound" in capsys.readouterr().err


def test_orbifold_artifacts(tmp_path):
    assert run(["orbifold", "--output", str(tmp_path), "--map", "pi_sinh", "--depth", "6"]) == 0
    payload = json.loads((tmp_path / "orbifold.json").read_text())
    assert payload["covering_passed"] and payload["inclusion_passed"]
    marks = payload["base"]["marks"]
    assert all(m[2] == 2 for m in marks)


def test_json_float_formatting():
    assert f12(1.23456789012345678) == 1.23456789012
    assert f12(float("inf")) == float("inf")


def _floats(data):
    if isinstance(data, float):
        yield data
    elif isinstance(data, dict):
        for v in data.values():
            yield from _floats(v)
    elif isinstance(data, list):
        for v in data:
            yield from _floats(v)


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--set", "w_points=50", "--set", "k_max=4"],
        ["homotopy", "--set", "homotopy_n_max=1"],
        ["orbifold"],
        ["separation"],
        ["expansion", "--set", "sample_count=3", "--set", "samples_per_scale=3",
         "--set", "scale_min_exp=6", "--set", "scale_max_exp=6"],
        ["pullback", "--set", "pullback_kmax=3"],
        ["basin"],
    ],
    ids=lambda args: args[0],
)
def test_every_json_float_has_12_digits(tmp_path, args):
    # cosh_minus_one has removed discs, so every kind of float field is written
    assert run(args + ["--map", "cosh_minus_one", "--output", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"{args[0]}.json").read_text())
    floats = list(_floats(payload))
    assert floats
    assert all(repr(f12(x)) == repr(x) for x in floats)


def test_format_selection(tmp_path):
    assert run(["bounds", "--output", str(tmp_path), "--format", "csv"]) == 0
    assert (tmp_path / "bounds.csv").exists()
    assert not (tmp_path / "bounds.json").exists()


@pytest.mark.parametrize("name", ["cosh", "pi_sinh", "cosh_minus_one"])
def test_orbifold_artifacts_do_not_depend_on_the_seed(tmp_path, name):
    # the seed key is accepted and ignored: no command draws random numbers
    outputs = []
    for seed in (1, 2):
        out = tmp_path / str(seed)
        assert run(["orbifold", "--map", name, "--format", "both", "--set", f"seed={seed}",
                    "--output", str(out)]) == 0
        outputs.append([(out / f"orbifold.{ext}").read_bytes() for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


# every command, at the reduced sizes of the benchmark workloads
_EVERY_COMMAND = [
    ["bounds", "--set", "w_points=99", "--set", "k_max=8"],
    ["homotopy", "--set", "homotopy_n_max=2"],
    ["orbifold"],
    ["separation"],
    ["pullback", "--set", "pullback_kmax=3"],
    ["basin"],
    ["expansion", "--set", "sample_count=4", "--set", "samples_per_scale=3",
     "--set", "scale_min_exp=2", "--set", "scale_max_exp=3", "--set", "sample_r_max=20.0"],
]


def test_no_command_imports_numpy_random(tmp_path):
    # numpy.random adds about 6 MB to a run's peak memory; one fresh
    # interpreter runs every command, so an import by any of them shows
    script = (
        "import sys\n"
        "from hyporb.cli import main\n"
        f"for argv in {_EVERY_COMMAND!r}:\n"
        f"    assert main(argv + ['--output', {str(tmp_path)!r}]) == 0, argv\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyporb.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
