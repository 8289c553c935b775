"""The benchmark's span tracer against the program it patches.

``perfbench/tracer.py`` wraps harness and routing names from outside; a
renamed function, or a bulk path that no longer calls the named engines,
would leave its layers silently empty.  The tracer is loaded by path and
driven the way ``perfbench/run.py`` drives it.
"""

import importlib.util
from pathlib import Path

import pytest

from routesim import harness
from routesim.topology import VoidSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("protocol", ["gf-avcs", "gpsr-rng", "bvr", "lcr"])
def test_traced_evaluation_keeps_the_row_and_counts_its_layers(protocol):
    tracer = _load_tracer()
    cfg = harness.ScenarioConfig(deployment="grid", rows=12, cols=12, radio_range=1.5,
                                 voids=(VoidSpec("disc", (5.5, 5.5), radius=2.5),),
                                 protocol=protocol, loc_error=0.4, align_depth=1, sample=400,
                                 seed=2)
    plain = harness.evaluate_scenario(harness.Scenario.build(cfg), workers=1)
    with tracer.patched(tracer.Tracer()) as tr:
        # looked up through the module, as the benchmark does, so the wrappers run
        row = harness.evaluate_scenario(harness.Scenario.build(cfg), workers=1)
    assert row.csv_row() == plain.csv_row()
    layers = tr.summary()
    assert layers["harness.pairs"] == row.pairs
    assert tr.calls["harness.build"] == tr.calls["harness.evaluate"] == 1
    if protocol != "gf-avcs":
        assert layers["routing.engine_calls"] > 0
        assert layers["routing.dfield_calls"] > 0
