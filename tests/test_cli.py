import os
import subprocess
import sys

import pytest

from routesim.cli import main
from routesim.config import _FLOAT_KEYS

GRID_CFG = "deployment = grid\nrows = 20\ncols = 20\nradio_range = 1.2\nprotocol = gf-geo\n"
HOLE_CFG = (
    "deployment = grid\nrows = 20\ncols = 20\nradio_range = 1.2\n"
    "voids = disc:9.5,9.5,3.0\nprotocol = gf-geo\n"
)
ABC_CFG = "deployment = abc-fixture\nprotocol = gf-vcs\n"


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


def test_route_bad_ids(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "route", "0", "4000"]) == 2


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


def test_sweep_rows(cfg_file, capsys):
    path = cfg_file(GRID_CFG.replace("gf-geo", "gf-avcs"))
    assert run_cli(["--config", path, "--sample", "400", "sweep", "align_depth", "0", "1", "2", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5  # header + one row per depth


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
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


def test_sweep_negative_seed_is_a_point_error(cfg_file, capsys):
    path = cfg_file("deployment = random\nn = 30\n")
    assert run_cli(["--config", path, "sweep", "seed", "-1", "2"]) == 2
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4  # header, seed 2, mean, std
    assert captured.err == "sweep point -1: seed must be >= 0\n"


def test_coords_dump(cfg_file, capsys):
    path = cfg_file(GRID_CFG.replace("gf-geo", "gf-avcs") + "align_depth = 1\n")
    assert run_cli(["--config", path, "coords"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("coords dims 4 depth 1 rule self-weighted anchors ")
    assert len(out) == 401


def test_coords_rejects_geo_protocol(cfg_file, capsys):
    path = cfg_file(GRID_CFG)
    assert run_cli(["--config", path, "coords"]) == 2


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
