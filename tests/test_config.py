import pytest

from routesim.cli import main
from routesim.config import ConfigError, parse_config, parse_voids
from routesim.harness import ScenarioConfig


GOOD = """
# a comment line
deployment = grid
rows = 20
cols = 20
spacing = 1.0
radio_range = 1.2
protocol = gf-avcs
align_depth = 2
align_rule = uniform-average
distance = manhattan
voids = disc:9.5,9.5,3.0
anchors = corners
dims = 4
seed = 17
loc_error = 0.2
ttl_factor = 6.0
semi_weight = 12.5
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.rows == 20 and cfg.protocol == "gf-avcs"
    assert cfg.align_depth == 2 and cfg.align_rule == "uniform-average"
    assert cfg.voids[0].kind == "disc" and cfg.voids[0].radius == 3.0
    assert cfg.seed == 17 and cfg.ttl_factor == 6.0


def test_defaults_without_keys():
    cfg = parse_config("deployment = grid\nprotocol = sp\n")
    assert cfg == ScenarioConfig(deployment="grid", protocol="sp")


def test_unknown_key_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("deployment = grid\nbogus = 3\n")
    assert "line 2" in str(err.value) and "bogus" in str(err.value)


def test_sample_is_not_a_config_key():
    # only the --sample option sets the pair budget
    with pytest.raises(ConfigError) as err:
        parse_config("deployment = grid\nsample = 5\n")
    assert "line 2" in str(err.value) and "unknown key 'sample'" in str(err.value)


def test_malformed_line_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("deployment = grid\nrows 20\n")
    assert "line 2" in str(err.value)


def test_bad_value_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("rows = twenty\n")
    assert "line 1" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("rows = 5\nrows = 6\n")
    assert "duplicate" in str(err.value)


def test_explicit_anchor_list():
    cfg = parse_config("protocol = gf-vcs\nanchors = 114,143,326,348\n")
    assert cfg.anchors == (114, 143, 326, 348)


def test_parse_voids_variants():
    assert parse_voids("") == ()
    assert parse_voids("none") == ()
    vs = parse_voids("disc:1,2,3; rect:4,5,1,2")
    assert vs[0].kind == "disc" and vs[1].kind == "rect"
    assert vs[1].half_w == 1.0 and vs[1].half_h == 2.0
    with pytest.raises(ConfigError):
        parse_voids("blob:1,2,3", lineno=4)
    with pytest.raises(ConfigError, match="^config line 6: disc void needs a positive radius$"):
        parse_voids("rect:4,5,1,2; disc:1,2,-3", lineno=6)


def test_semantic_error_reported():
    with pytest.raises(ConfigError):
        parse_config("protocol = not-a-protocol\n")


@pytest.mark.parametrize("text, message", [
    ("deployment = grid\nrows = 5\nseed = -1\n", "config line 3: seed must be >= 0"),
    ("protocol = gf-vcs\ndims = 5\n", "config line 2: corner anchors support 3 or 4 dims"),
    ("seed = -1\nprotocol = nope\n", "config line 1: seed must be >= 0"),
    ("protocol = gf-vcs\nanchors = 1,2\n", "config line 2: an anchor set needs at least 3 anchors"),
    ("anchors = 5,5,6\nprotocol = gf-geo\n", "config line 1: anchor ids must be distinct"),
    ("protocol = gf-vcs\nanchors = -1,2,3\n", "config line 2: anchor ids must be >= 0"),
])
def test_semantic_error_names_the_line_of_its_key(text, message, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    assert main(["--config", str(path), "eval"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
