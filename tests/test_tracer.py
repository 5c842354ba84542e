"""The benchmark's tracer still installs on the package and traces a CLI run.

``perfbench/tracer.py`` patches names in the package's modules by
their current names. A refactor that renames or drops one of them fails
here, in the test suite, rather than in the benchmark's traced run.
The witness runs fail when a checker builds its witness around the
patched names.
"""

import importlib.util
from pathlib import Path

import millrank.cli  # binds millrank; the tracer installs on millrank.cli too
from helpers import rk

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
        theorem1_out = capsys.readouterr().out
        # Plurality's cells are counted per best class: no checker runs, and
        # plurality runs once on each of the 7 best classes at n = 2.
        spans = ("axioms.SI", "axioms.DMON", "solutions.plurality")
        theorem1_stats = {span: tracer.stats[span][0] for span in spans}
        sampled = traced_main(
            ["sweep", "--rule", "plurality", "--axiom", "SI", "--n", "2", "--sample", "20", "--seed", "1"]
        )
    finally:
        tracer.restore()
    assert code == 0 and sampled == 0
    assert '"equivalent": true' in theorem1_out
    assert tracer.stats["cli.main"][0] == 2
    assert theorem1_stats == {"axioms.SI": 0, "axioms.DMON": 0, "solutions.plurality": 7}
    # A sampled pass walks its draws: one SI check per draw.
    assert tracer.stats["axioms.SI"][0] == 20
    assert (millrank.cli.main, millrank.axioms.AXIOMS["DMON"], millrank.RULES["plurality"]) == originals


def test_tracer_traces_the_witness_paths(capsys, tmp_path):
    # f_star violates both axioms on these rankings, so each check builds
    # its witness through the names the tracer patches.
    argvs = []
    for axiom, shorthand in (("SI", "1 2 12 / 3 / rest"), ("DMON", "1 2 12 3 13 / 23 / 123")):
        path = tmp_path / f"{axiom}.rank"
        path.write_text(millrank.render_ranking(rk(shorthand)))
        argvs.append(["check", "--rule", "f_star", "--axiom", axiom, "--input", str(path)])
    tracer = load_tracer().Tracer()
    traced_main = tracer.install(millrank)
    try:
        codes = [traced_main(argv) for argv in argvs]
    finally:
        tracer.restore()
    capsys.readouterr()
    assert codes == [1, 1]
    for span in (
        "transforms.apply_slide",
        "transforms.apply_deterioration",
        "transforms.deterioration_specs",
    ):
        assert tracer.stats[span][0] >= 1, span
