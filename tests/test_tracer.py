"""The benchmark's tracer still installs on the package and traces a CLI run.

``perfbench/tracer.py`` patches names in the package's modules by
their current names. A refactor that renames or drops one of them fails
here, in the test suite, rather than in the benchmark's traced run.
"""

import importlib.util
from pathlib import Path

import millrank

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_traces_theorem1_and_restores(capsys):
    originals = (millrank.cli.main, millrank.axioms.AXIOMS["DMON"], millrank.RULES["plurality"])
    tracer = load_tracer().Tracer()
    traced_main = tracer.install(millrank)
    try:
        code = traced_main(["verify", "theorem1", "--rule", "plurality", "--n", "2"])
    finally:
        tracer.restore()
    assert code == 0
    assert '"equivalent": true' in capsys.readouterr().out
    assert tracer.stats["cli.main"][0] == 1
    assert tracer.stats["axioms.SI"][0] == tracer.stats["axioms.DMON"][0] == 13
    assert (millrank.cli.main, millrank.axioms.AXIOMS["DMON"], millrank.RULES["plurality"]) == originals
