"""Line-oriented ``key = value`` scenario configuration files.

Parsing is total: every accepted file maps onto a valid ScenarioConfig, and
every rejection names the offending line: for a value the scenario rejects,
the first line whose key is invalid on its own.  Unknown keys are errors, not
warnings, so config drift fails loudly.
"""

from __future__ import annotations

from dataclasses import fields

from routesim.harness import ScenarioConfig, ScenarioError
from routesim.topology import TopologyError, VoidSpec


class ConfigError(ValueError):
    """A rejected config; ``lineno`` is None when no single line is at fault."""

    def __init__(self, lineno: int | None, message: str):
        where = "config" if lineno is None else f"config line {lineno}"
        super().__init__(f"{where}: {message}")
        self.lineno = lineno


# Every ScenarioConfig field but ``sample`` (set only by --sample), typed by its default.
_KEY_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig) if f.name != "sample"}


def parse_voids(text: str, lineno: int = 0) -> tuple[VoidSpec, ...]:
    """Void list syntax: ``disc:cx,cy,r`` or ``rect:cx,cy,hw,hh``, joined by ';'."""
    text = text.strip()
    if not text or text == "none":
        return ()
    out = []
    for part in text.split(";"):
        part = part.strip()
        kind, _, params = part.partition(":")
        try:
            nums = [float(x) for x in params.split(",")]
        except ValueError:
            raise ConfigError(lineno, f"bad void parameters {params!r}")
        try:
            if kind == "disc" and len(nums) == 3:
                out.append(VoidSpec("disc", (nums[0], nums[1]), radius=nums[2]))
            elif kind == "rect" and len(nums) == 4:
                out.append(VoidSpec("rect", (nums[0], nums[1]), half_w=nums[2], half_h=nums[3]))
            else:
                raise ConfigError(lineno, f"bad void spec {part!r} (want disc:cx,cy,r or rect:cx,cy,hw,hh)")
        except TopologyError as e:  # the void's own reason, on its line
            raise ConfigError(lineno, str(e)) from None
    return tuple(out)


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text into a validated ScenarioConfig."""
    values: dict = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (p.strip() for p in line.partition("="))
        if not eq:
            raise ConfigError(lineno, f"expected 'key = value', got {raw!r}")
        if key not in _KEY_TYPES:
            raise ConfigError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ConfigError(lineno, f"duplicate key {key!r}")
        linenos[key] = lineno
        try:
            if key == "voids":
                values[key] = parse_voids(value, lineno)
            elif key == "anchors" and value != "corners":
                values[key] = tuple(int(x) for x in value.split(","))
            else:
                values[key] = _KEY_TYPES[key](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(lineno, f"bad value {value!r} for {key!r}")
    try:
        return ScenarioConfig(**values)
    except ScenarioError as e:
        whole = e
    # Blame the first line whose key is invalid on its own.
    for key, value in values.items():
        try:
            ScenarioConfig(**{key: value})
        except ScenarioError as e:
            raise ConfigError(linenos[key], str(e)) from None
    raise ConfigError(None, str(whole)) from None


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
