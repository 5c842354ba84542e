"""The four campaign workloads and how their outputs are checked.

A workload is a fixed list of ``millrank`` command lines, run one after
another as a user would. ``{seed}`` is replaced by the benchmark's seed
(only ``sampled`` takes one) and ``{jobs}`` by the workload's worker count.

Every invocation is checked. A command whose report does not depend on
the seed must reproduce, byte for byte, the stdout recorded from the
commit that defined this benchmark. A seeded command must do the same
at ``DEFAULT_SEED``; at any other seed its report must satisfy the
invariants in ``check``.

Why each workload was chosen, and which per-layer metrics it should
move, is recorded in BENCHMARK.json and README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    digest: str  # sha256 of stdout; at DEFAULT_SEED for a seeded command
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    jobs: int | None = None  # worker count, for workloads that run the process pool

    def argvs(self, seed: int, jobs: int | None = None) -> list[list[str]]:
        jobs = jobs or self.jobs
        return [[a.format(seed=seed, jobs=jobs) for a in c.argv] for c in self.commands]


SETUP = Command(
    ("enumerate", "--n", "1", "--count-only"),
    "678d7c2fd20d7d2c92a24bed4229c6dfc0f791eec9fa96053179e965349a4db5",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "transform-sweep",
            (
                Command(
                    ("verify", "theorem1", "--rule", "plurality", "--n", "3", "--jobs", "{jobs}"),
                    "27e33199dfcb5e3232e31a8db6569fb490a48892560d26eddeaee88ef7318ba3",
                ),
            ),
            jobs=2,
        ),
        Workload(
            "premise-scan",
            (
                Command(
                    ("verify", "prop3", "--n", "3", "--jobs", "{jobs}"),
                    "8f77f66eed83853d3067daa32908b83ff2c9ea23c6d5581d7e4963e56fc1f70b",
                ),
                Command(
                    ("verify", "prop1", "--n", "3", "--jobs", "{jobs}"),
                    "d558a8d1c3dc683b54857816f884bb70a1e74d837b550ebe0607f6374d5563d3",
                ),
            ),
            jobs=1,
        ),
        Workload(
            "enumerate-emit",
            (
                Command(
                    ("enumerate", "--n", "3"),
                    "841a76471540676a4806a08f655f47fb58c64c0e7a8918c2607101b72e8a52c5",
                ),
            ),
        ),
        Workload(
            "sampled",
            (
                Command(
                    ("sweep", "--rule", "split_plurality", "--axiom", "DMON", "--n", "5",
                     "--sample", "400", "--seed", "{seed}"),
                    "1b0f7a8b721ea8607f57b5416d31ba92bdafc7728c33bdf543dc1bfb1dc23a9b",
                    seeded=True,
                ),
                Command(
                    ("sample", "--n", "8", "--count", "800", "--seed", "{seed}"),
                    "72733bab42bfd8ab5d3792a9c31b9d65a554970061bf19d3a25e6aa939545b82",
                    seeded=True,
                ),
            ),
        ),
    )
}


class _Wrong(Exception):
    """A report that breaks one of the invariants."""


def check(command: Command, argv: list[str], seed: int, code: int, stdout: bytes) -> str | None:
    """Return why an invocation's output is wrong, or None when it is right."""
    if not command.seeded or seed == DEFAULT_SEED:
        if sha256(stdout) != command.digest:
            return "stdout differs from the recorded report"
        expected_code = 0  # every recorded report came with exit code 0
    else:
        from millrank import MillrankError

        try:
            expected_code = _invariants(argv, json.loads(stdout)["result"])
        except _Wrong as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, MillrankError) as exc:
            return f"stdout is not a well-formed report: {exc!r}"
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _invariants(argv, result) -> int:
    """Check a seeded command's report; return the exit code the report calls for."""
    from millrank import RULES, Witness, parse_ranking, replay

    if argv[0] == "sweep":
        report = result["sweep_report"]
        if report["rankings_checked"] != int(_flag(argv, "--sample")):
            raise _Wrong(f"rankings_checked {report['rankings_checked']} != sample count")
        if len(report["witnesses"]) != min(report["violations"], report["witness_cap"]):
            raise _Wrong("witness count disagrees with the violation count")
        rule = RULES[report["rule"]]
        for w in report["witnesses"]:
            witness = Witness(w["axiom"], parse_ranking(w["ranking"]), {}, w["expected"], {})
            if replay(witness, rule).status != "violated":
                raise _Wrong(f"witness does not replay as violated: {w['ranking']!r}")
        return 1 if report["violations"] else 0
    rankings = result["rankings"]  # the sample command
    n, count = int(_flag(argv, "--n")), int(_flag(argv, "--count"))
    if len(rankings) != count:
        raise _Wrong(f"{len(rankings)} rankings, expected {count}")
    sizes = {parse_ranking(text).universe.n for text in rankings}
    if sizes != {n}:
        raise _Wrong(f"universe sizes {sorted(sizes)}, expected {n}")
    return 0
