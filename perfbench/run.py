"""Benchmark the millrank CLI on its campaign workloads.

Run from the root of a millrank checkout:

    python3 perfbench/run.py --workload transform-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` spawns the workload's ``millrank`` commands, one after
another, in whole passes for about ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs each command once in this
process with spans around the calls into every module and reports the
per-layer metrics. ``--workload all`` runs every
workload and ends with a table. Every output is checked; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is taken from ``src/`` beside
this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracer import LAYERS, ROOT_SPAN, Tracer
from workloads import SETUP, WORKLOADS, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_SPAWNS = 7  # timed set-ups per run, after one untimed spawn that fills the bytecode cache
IMPORT_SPAWNS = 5
PROBE_MAX_N = 10
PROBE_TIMEOUT_S = 60
DRAW_WINDOW_S = 0.25
RULES = ("plurality", "les", "obi", "split_plurality", "const_x")  # those with per-rule metrics
AXIOMS = ("STAG", "TAG", "TDF", "TJAD", "CV", "WRAG", "SI", "DMON")  # those with per-axiom metrics


class Ledger:
    """Checks every invocation and counts the ones that failed."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def record(self, command, argv, code, stdout, stderr):
        self.attempted += 1
        problem = check(command, argv, self.seed, code, stdout)
        if problem:
            self.failed += 1
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED millrank {' '.join(argv)}: {problem} {' '.join(tail)}")


def child_env():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("MILLRANK_JOBS", None)  # it would override --jobs
    return env


class Spawner:
    """Runs CLI commands from ``spawner.py``, a process of its own; see there why."""

    def __enter__(self):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], env=child_env(), cwd=ROOT,
            )
        return self

    def __exit__(self, *exc):
        self.sock.close()  # the spawner exits at end of file
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, argv):
        """Run ``millrank ARGV``; return its stdout, stderr and the spawner's reply."""
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        cmd = [sys.executable, "-m", "millrank.cli", *argv]
        try:
            socket.send_fds(self.sock, [json.dumps(cmd).encode()], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        with open(out_r, "rb") as out, open(err_r, "rb") as err, ThreadPoolExecutor(1) as pool:
            pending = pool.submit(err.read)
            stdout = out.read()
            stderr = pending.result()
        reply = self.sock.recv(1 << 16)
        if not reply:
            raise RuntimeError("the spawner exited")
        return stdout, stderr, json.loads(reply)


def metric(value, unit):
    return {"value": value, "unit": unit}


def describe(name, values, unit):
    print(
        f"  {name}: median {statistics.median(values):.4f} {unit}, max {max(values):.4f} {unit},"
        f" n={len(values)}: {' '.join(f'{v:.3f}' for v in values)}"
    )


def measure(workload, seed, seconds, ledger):
    """End-to-end metrics of whole passes over the workload, tracing off."""
    def run(command, argv):
        stdout, stderr, usage = spawner.run(argv)
        ledger.record(command, argv, usage["code"], stdout, stderr)
        return usage

    with Spawner() as spawner:
        setup = [run(SETUP, list(SETUP.argv))["wall_s"] for _ in range(SETUP_SPAWNS + 1)][1:]
        passes, spans = [], []
        start = time.perf_counter()
        # Whole passes, at least two; then stop at the pass end nearest to the end of the window.
        while (len(spans) < MIN_PASSES
               or time.perf_counter() - start + statistics.median(spans) / 2 < seconds):
            begun = time.perf_counter()
            passes.append([run(c, a) for c, a in zip(workload.commands, workload.argvs(seed))])
            spans.append(time.perf_counter() - begun)
    walls = [sum(u["wall_s"] for u in p) for p in passes]
    cpus = [sum(u["cpu_s"] for u in p) for p in passes]
    rss = max(u["rss_mb"] for p in passes for u in p)
    error_rate = ledger.failed / ledger.attempted
    print(f"{workload.name}: {len(passes)} passes, {ledger.attempted} invocations")
    describe("wall_s", walls, "s")
    describe("cpu_s", cpus, "s")
    describe("setup_s", setup, "s")
    print(f"  peak_rss_mb: {rss:.1f} MB")
    print(f"  error_rate: {error_rate:.4f} ({ledger.failed} of {ledger.attempted})")
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }, error_rate


def run_inprocess(main, workload, argvs, after=None):
    """Run each command through ``main`` in this process.

    Returns the total wall time and, per command, what ``Ledger.record``
    needs; the caller checks them once any tracing has been removed.
    """
    total, runs = 0.0, []
    for command, argv in zip(workload.commands, argvs):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        total += time.perf_counter() - start
        runs.append((command, argv, code, out.getvalue().encode(), err.getvalue().encode()))
        if after:
            after(argv)
    return total, runs


def import_times():
    """Median cumulative import time of millrank.cli and of jsonschema, in fresh interpreters."""
    cli_s, jsonschema_s = [], []
    for _ in range(IMPORT_SPAWNS + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import millrank.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        )
        top, schema = 0.0, 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name, seconds = parts[2].strip(), int(parts[1]) / 1e6
            depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
            if depth == 0 and name.split(".")[0] == "millrank":
                top += seconds
            if name == "jsonschema":
                schema = seconds
        cli_s.append(top)
        jsonschema_s.append(schema)
    return statistics.median(cli_s[1:]), statistics.median(jsonschema_s[1:])


def probe_sampler(seed):
    """Largest n <= PROBE_MAX_N at which ``sample --n N --count 1`` exits 0."""
    for n in range(PROBE_MAX_N, 0, -1):
        argv = ["sample", "--n", str(n), "--seed", str(seed), "--count", "1"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "millrank.cli", *argv], capture_output=True, text=True,
                env=child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"probe: millrank {' '.join(argv)} timed out after {PROBE_TIMEOUT_S} s")
            continue
        if proc.returncode == 0:
            print(f"probe: millrank {' '.join(argv)} exited 0")
            return n
        tail = proc.stderr.strip().splitlines()[-1:]
        print(f"probe: millrank {' '.join(argv)} exited {proc.returncode}: {' '.join(tail)}")
    return 0


def draw_rates(seed):
    from millrank.enumeration import sample_ranking

    rates = {}
    for n in (5, 6, 7, 8):
        draws, start = 0, time.perf_counter()
        while draws < 3 or time.perf_counter() - start < DRAW_WINDOW_S:
            sample_ranking(n, seed * 1_000_003 + draws)
            draws += 1
        rates[n] = draws / (time.perf_counter() - start)
    return rates


def trace(workload, seed, ledger):
    """Per-layer metrics from one traced pass, plus the untraced passes they are compared to."""
    import millrank
    import millrank.cli

    import_s, jsonschema_s = import_times()
    max_n_ok = probe_sampler(seed)
    rates = draw_rates(seed)
    serial = workload.argvs(seed, jobs=1)
    wall_serial, runs = run_inprocess(millrank.cli.main, workload, serial)
    speedup = 0.0
    if workload.jobs:
        wall_pooled, pooled_runs = run_inprocess(
            millrank.cli.main, workload, workload.argvs(seed, jobs=2)
        )
        speedup = wall_serial / wall_pooled
        runs += pooled_runs
    tracer = Tracer()

    def passes_so_far(argv):
        print(f"after millrank {' '.join(argv)}: enumeration.stream.passes"
              f" {tracer.counts['enumeration.stream.passes']} so far")

    try:
        wall_traced, traced_runs = run_inprocess(
            tracer.install(millrank), workload, serial, passes_so_far
        )
    finally:
        tracer.restore()
    for run in runs + traced_runs:
        ledger.record(*run)

    stats, counts, seen = tracer.stats, tracer.counts, tracer.seen
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(tracer.layer_self(layer), "s")
    m["enumeration.stream.passes"] = metric(counts["enumeration.stream.passes"], "count")
    m["enumeration.stream.rankings"] = metric(counts["enumeration.stream.rankings"], "count")
    m["enumeration.stream.self_s"] = metric(stats["enumeration.stream"][1], "s")
    m["enumeration.sample.draws"] = metric(stats["enumeration.sample"][0], "count")
    m["enumeration.sample.self_s"] = metric(stats["enumeration.sample"][1], "s")
    for n, rate in rates.items():
        m[f"enumeration.sample.draws_per_s.n{n}"] = metric(rate, "1/s")
    m["enumeration.sample.max_n_ok"] = metric(max_n_ok, "n")
    m["core.ranking.builds"] = metric(stats["core.ranking"][0], "count")
    m["core.ranking.build_s"] = metric(stats["core.ranking"][1], "s")
    for rule in RULES:
        calls, self_s = stats[f"solutions.{rule}"]
        m[f"solutions.{rule}.calls"] = metric(calls, "count")
        m[f"solutions.{rule}.self_s"] = metric(self_s, "s")
        m[f"solutions.{rule}.distinct_ratio"] = metric(
            len(seen[rule]) / calls if calls else 0.0, "ratio"
        )
    for name in ("apply_slide", "apply_deterioration", "deterioration_specs"):
        calls, self_s = stats[f"transforms.{name}"]
        m[f"transforms.{name}.calls"] = metric(calls, "count")
        m[f"transforms.{name}.self_s"] = metric(self_s, "s")
    for axiom in AXIOMS:
        calls, self_s = stats[f"axioms.{axiom}"]
        m[f"axioms.{axiom}.calls"] = metric(calls, "count")
        m[f"axioms.{axiom}.premises"] = metric(counts[f"axioms.{axiom}.premises"], "count")
        m[f"axioms.{axiom}.self_s"] = metric(self_s, "s")
    m["axioms.rdf_premises.self_s"] = metric(stats["axioms.rdf_premises"][1], "s")
    m["axioms.rjad_premises.self_s"] = metric(stats["axioms.rjad_premises"][1], "s")
    m["verify.sweep.calls"] = metric(stats["verify.sweep"][0], "count")
    m["verify.sweep.self_s"] = metric(stats["verify.sweep"][1], "s")
    m["verify.pool.speedup"] = metric(speedup, "ratio")
    m["textio.render_ranking.calls"] = metric(stats["textio.render_ranking"][0], "count")
    m["textio.render_ranking.self_s"] = metric(stats["textio.render_ranking"][1], "s")
    m["cli.emit_report.json_dumps_s"] = metric(stats["cli.emit_report.json_dumps"][1], "s")
    m["cli.emit_report.schema_validate_s"] = metric(
        stats["cli.emit_report.schema_validate"][1], "s"
    )
    m["cli.emit_report.bytes"] = metric(counts["cli.emit_report.bytes"], "B")
    m["cli.import_s"] = metric(import_s, "s")
    m["cli.import.jsonschema_s"] = metric(jsonschema_s, "s")
    m["trace.overhead_ratio"] = metric(wall_traced / wall_serial, "ratio")
    # Time outside every module span but the root one is unmeasured.
    m["trace.coverage"] = metric(1 - stats[ROOT_SPAN][1] / wall_traced, "ratio")

    print(f"{workload.name}: traced {wall_traced:.3f} s, untraced {wall_serial:.3f} s at --jobs 1")
    for name, value in m.items():
        print(f"  {name}: {value['value']:.6g} {value['unit']}")
    return m


def declared(mode):
    """Metric names BENCHMARK.json declares for a mode, or None without the file."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if mode else "end_to_end"]}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "millrank" / "cli.py").is_file():
        print(f"error: no millrank sources at {SRC}; run from a millrank checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MILLRANK_JOBS", None)
    import millrank

    if not Path(millrank.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported millrank from {millrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    print("meta " + json.dumps({
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    expected = declared(args.trace)
    results, attempted, failed, table = {}, 0, 0, []
    for name in names:
        ledger = Ledger(args.seed)
        if args.trace:
            metrics = trace(WORKLOADS[name], args.seed, ledger)
        else:
            metrics, error_rate = measure(WORKLOADS[name], args.seed, args.seconds, ledger)
            table.append((name, metrics, error_rate))
        attempted += ledger.attempted
        failed += ledger.failed
        if expected is not None and set(metrics) != expected:
            print(f"error: metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json",
                  file=sys.stderr)
            return 1
        if len(names) == 1:
            results = metrics
        else:
            results.update({f"{name}.{k}": v for k, v in metrics.items()})
    if table and len(names) > 1:
        print(f"{'workload':<16}{'wall_s':>10}{'cpu_s':>10}{'peak_rss_mb':>13}{'setup_s':>10}"
              f"{'error_rate':>12}")
        for name, m, error_rate in table:
            print(f"{name:<16}{m['wall_s']['value']:>10.3f}{m['cpu_s']['value']:>10.3f}"
                  f"{m['peak_rss_mb']['value']:>13.1f}{m['setup_s']['value']:>10.4f}"
                  f"{error_rate:>12.4f}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
