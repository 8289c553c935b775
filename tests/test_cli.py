import os
import subprocess
import sys

import numpy as np
import pytest

from routesim import harness
from routesim.cli import EXIT_BY_FAILURE, main
from routesim.config import _KEY_TYPES
from routesim.harness import Scenario
from routesim.routing import PROTOCOL_SPECS, CoordSource, Failure

GRID_CFG = "deployment = grid\nrows = 20\ncols = 20\nradio_range = 1.2\nprotocol = gf-geo\n"
HOLE_CFG = (
    "deployment = grid\nrows = 20\ncols = 20\nradio_range = 1.2\n"
    "voids = disc:9.5,9.5,3.0\nprotocol = gf-geo\n"
)
ABC_CFG = "deployment = abc-fixture\nprotocol = gf-vcs\n"
# A void strip down the middle column splits the grid: 0 and 379 lie apart.
SPLIT_CFG = (
    "deployment = grid\nrows = 20\ncols = 20\nradio_range = 1.2\n"
    "voids = rect:9.5,9.5,0.6,10.0\nloc_error = 0.4\nprotocol = sp\n"
)


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name="scenario.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(args):
    return main(args)


def test_gen_writes_topology(cfg_file, tmp_path, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "gen"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nodes 400 ")


def test_gen_with_void_count(cfg_file, capsys):
    path = cfg_file(HOLE_CFG)
    assert run_cli(["--config", path, "gen"]) == 0
    assert capsys.readouterr().out.startswith("nodes 371 ")


def test_malformed_config_exits_nonzero_with_line(cfg_file, capsys):
    path = cfg_file("deployment = grid\nwat = 1\n")
    assert run_cli(["--config", path, "gen"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_route_self_single_line(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "route", "7", "7"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("7 ") is False
    assert out[0].split() == ["0", "7", "start", "0.000000"]


def test_route_counterexample_exit_codes(cfg_file, capsys):
    path = cfg_file(ABC_CFG)
    assert run_cli(["--config", path, "route", "2", "0"]) == 3  # local minimum
    capsys.readouterr()
    lcr = cfg_file(ABC_CFG.replace("gf-vcs", "lcr"), "lcr.cfg")
    assert run_cli(["--config", lcr, "route", "2", "0"]) == 0
    out = capsys.readouterr().out
    assert "backtrack" in out


def test_route_across_components_is_unreachable(cfg_file, capsys):
    path = cfg_file(SPLIT_CFG)
    assert run_cli(["--config", path, "route", "0", "379"]) == 7
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert captured.err == "failed: unreachable\n"


def test_every_failure_has_an_exit_code():
    causes = {v for k, v in vars(Failure).items() if not k.startswith("_")}
    assert causes == set(EXIT_BY_FAILURE)
    assert len(set(EXIT_BY_FAILURE.values())) == len(causes)


def test_route_bad_ids(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    for ids in (["0", "4000"], ["0", "400"], ["400", "0"], ["0", "-1"], ["-1", "0"]):
        assert run_cli(["--config", path, "route", *ids]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: src/dst must be node ids in [0, 400)\n"


def test_eval_csv(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "eval"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("scenario_id,protocol,")
    fields = out[1].split(",")
    assert fields[1] == "gf-geo" and fields[7] == "1.000000"


def test_eval_sample_flag(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "--sample", "500", "eval"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split(",")[6] == "500"


@pytest.mark.parametrize("command", [["gen"], ["coords"], ["route", "0", "5"], ["map", "5"]])
def test_sample_flag_reaches_every_command(cfg_file, capsys, monkeypatch, command):
    path = cfg_file(GRID_CFG.replace("gf-geo", "gf-vcs"))
    assert run_cli(["--config", path] + command) == 0
    plain = capsys.readouterr().out
    routing = Scenario.routing
    samples = []

    def spy(config):
        samples.append(config.sample)
        return routing(config)

    monkeypatch.setattr(Scenario, "routing", staticmethod(spy))
    assert run_cli(["--config", path, "--sample", "37"] + command) == 0
    assert samples == [37]
    # none of these outputs reads the pair budget
    assert capsys.readouterr().out == plain


# A 12x12 grid on all pairs: its pair oracle is n(n-1) hops.
ALL_PAIRS_CFG = "deployment = grid\nrows = 12\ncols = 12\nradio_range = 1.5\nprotocol = gf-avcs\nalign_depth = 1\n"


def _refuse_oracle(*args):
    raise AssertionError("a pair oracle was built")


@pytest.mark.parametrize("command", [
    [*sample, *command]
    for sample in ([], ["--sample", "37"])
    for command in (["gen"], ["coords"], ["route", "0", "143"], ["map", "5"])
])
def test_commands_that_do_not_evaluate_build_no_pair_oracle(cfg_file, capsys, monkeypatch, command):
    monkeypatch.setattr(harness, "hop_rows", _refuse_oracle)
    monkeypatch.setattr(harness, "pair_hops", _refuse_oracle)
    assert run_cli(["--config", cfg_file(ALL_PAIRS_CFG)] + command) == 0
    assert capsys.readouterr().out


def test_eval_builds_the_all_pairs_oracle_once(cfg_file, capsys, monkeypatch):
    path = cfg_file(ALL_PAIRS_CFG)
    rows = harness.hop_rows
    blocks = []

    def recording(t, roots):
        blocks.append(np.array(roots))
        return rows(t, roots)

    monkeypatch.setattr(harness, "hop_rows", recording)
    outs = []
    for workers in ("1", "2"):
        blocks.clear()
        assert run_cli(["--config", path, "--workers", workers, "eval"]) == 0
        outs.append(capsys.readouterr().out)
        # every destination's row once, before any worker forks
        assert np.array_equal(np.concatenate(blocks), np.arange(144))
    assert outs[0] == outs[1] and outs[0].splitlines()[1].split(",")[6] == str(144 * 143)


def test_sweep_rows(cfg_file, capsys):
    path = cfg_file(GRID_CFG.replace("gf-geo", "gf-avcs"))
    assert run_cli(["--config", path, "--sample", "400", "sweep", "align_depth", "0", "1", "2", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5  # header + one row per depth


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(k for k, kind in _KEY_TYPES.items() if kind is float))
def test_non_finite_float_value_exits_2(cfg_file, capsys, key, value):
    path = cfg_file(f"deployment = grid\nrows = 5\ncols = 5\nprotocol = bvr\n{key} = {value}\n")
    assert run_cli(["--config", path, "eval"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and key in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("voids", ["disc:nan,2.5,1.0", "disc:2.5,2.5,inf", "rect:2.5,-inf,1.0,1.0"])
def test_non_finite_void_parameter_exits_2(cfg_file, capsys, voids):
    path = cfg_file(f"deployment = grid\nrows = 5\ncols = 5\nvoids = {voids}\n")
    assert run_cli(["--config", path, "eval"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: config line 4:")


@pytest.mark.parametrize("voids, reason", [
    ("disc:1,2,-3", "disc void needs a positive radius"),
    ("rect:1,2,0,3", "rect void needs positive half extents"),
])
def test_rejected_void_keeps_its_reason(cfg_file, capsys, voids, reason):
    path = cfg_file(f"deployment = grid\nrows = 5\ncols = 5\nvoids = {voids}\n")
    assert run_cli(["--config", path, "eval"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: config line 4: {reason}\n"


@pytest.mark.parametrize("width", ["0", "-5"])
def test_bad_deployment_width_exits_2(cfg_file, capsys, width):
    # A zero width once put every node on x = 0 and evaluated.
    path = cfg_file(f"deployment = random\nn = 50\nwidth = {width}\n")
    assert run_cli(["--config", path, "eval"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deployment width and height must be finite and positive\n"


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 1.54 GiB"), "error: out of memory: Unable to allocate 1.54 GiB\n"),
])
def test_out_of_memory_exits_2_with_one_line(cfg_file, capsys, monkeypatch, error, message):
    # Drawing a huge sample can exhaust the address space inside Scenario.build.
    def exhausted(config):
        raise error

    monkeypatch.setattr(Scenario, "build", staticmethod(exhausted))
    assert run_cli(["--config", cfg_file(GRID_CFG), "eval"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("axis, value", [("seed", "1.5"), ("radio_range", "abc"), ("align_depth", "x")])
def test_sweep_malformed_value_exits_2(cfg_file, capsys, axis, value):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "sweep", axis, "1", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad {axis} value {value!r}\n"


@pytest.mark.parametrize("extra, args", [
    ("deployment = random\nn = 30\nseed = -1\n", ["eval"]),
    ("deployment = grid\nrows = 5\ncols = 5\nseed = -1\n", ["--sample", "10", "eval"]),
    ("deployment = grid\nrows = 5\ncols = 5\nloc_error = 0.2\nseed = -104730\n", ["eval"]),
])
def test_negative_seed_exits_2(cfg_file, capsys, extra, args):
    path = cfg_file(extra)
    assert run_cli(["--config", path, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.endswith("seed must be >= 0\n") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("extra, args, rows, err", [
    ("deployment = random\nn = 30\n", ["seed", "-1", "2"],
     4,  # header, seed 2, mean, std
     "sweep point -1: seed must be >= 0\n"),
    # A negative or NaN void size is not "no void".
    ("deployment = grid\nrows = 12\ncols = 12\nprotocol = gf-geo\n", ["void_size", "0", "-2", "nan", "2"],
     3,  # header, void_size 0, void_size 2
     "sweep point -2.0: void_size must be >= 0\nsweep point nan: void_size must be >= 0\n"),
], ids=["seed", "void_size"])
def test_sweep_negative_seed_is_a_point_error(cfg_file, capsys, extra, args, rows, err):
    path = cfg_file(extra)
    assert run_cli(["--config", path, "sweep", *args]) == 2
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == rows
    assert captured.err == err


def test_sweep_hole_count_over_a_rect_void(cfg_file, capsys):
    # A rect void has no radius: the swept holes are discs of radius 2.0.
    grid = "deployment = grid\nrows = 12\ncols = 12\nprotocol = gf-geo\n"
    path = cfg_file(grid + "voids = rect:6,6,1.5,1.5\n")
    assert run_cli(["--config", path, "sweep", "hole_count", "0", "1", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert len(rows) == 4
    one_hole = cfg_file(grid + "voids = disc:6,6,2.0\n", name="one_hole.cfg")
    assert run_cli(["--config", one_hole, "eval"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == rows[2]


def test_coords_dump(cfg_file, capsys):
    path = cfg_file(GRID_CFG.replace("gf-geo", "gf-avcs") + "align_depth = 1\n")
    assert run_cli(["--config", path, "coords"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("coords dims 4 depth 1 rule self-weighted anchors ")
    assert len(out) == 401


def test_coords_rejects_geo_protocol(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "coords"]) == 2
    err = capsys.readouterr().err
    assert err == "error: coords needs a virtual-coordinate protocol (gf-vcs, gf-avcs, lcr, bvr)\n"
    # the names are the table's protocols on virtual coordinates, in table order
    virtual = [p for p, spec in PROTOCOL_SPECS.items() if spec.coords != CoordSource.GEO]
    assert err[err.index("(") + 1:err.index(")")].split(", ") == virtual


def test_map_output(cfg_file, capsys):
    path = cfg_file(
        "deployment = grid\nrows = 20\ncols = 20\nradio_range = 1.2\n"
        "protocol = gf-vcs\nanchors = 114,143,326,348\n"
    )
    assert run_cli(["--config", path, "map", "162"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x,y,dist,is_local_min"
    assert len(out) == 401
    assert sum(1 for ln in out[1:] if ln.split(",")[2] == "0.000000") == 1
    assert sum(1 for ln in out[1:] if ln.endswith(",1")) >= 1


def test_outputs_are_reproducible(cfg_file, tmp_path):
    path = cfg_file(GRID_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["--config", path, "--out", str(a), "eval"]) == 0
    assert run_cli(["--config", path, "--out", str(b), "eval"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    # the child process imports routesim from wherever this one does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "routesim.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "routesim" in proc.stdout


def test_cli_eval_imports_no_scipy():
    # numpy is the only runtime dependency: scipy serves the tests alone
    script = (
        "import sys\n"
        "from routesim.cli import main\n"
        "assert main(['--config', 'configs/grid20_geo.cfg', '--out', sys.argv[1], 'eval']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script, os.devnull], capture_output=True,
                          text=True, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
