"""Benchmark of finsimp: three workloads of checked calls, timed from outside.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload horn-scan --seed 1 --seconds 42 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end metrics of BENCHMARK.json, with `--trace 1` its
per-layer metrics; a per-layer metric that the workload does not
exercise reads 0.  Readable lines with sample counts, the error rate
and the tail percentile of CLI calls go to stderr.

Every pass of a workload runs in fresh interpreters: one worker
(engine.py) for horn-scan and slice-limit, one `python -m finsimp.cli`
per call for cli-mix.  A run makes passes, one client at a time, until
the next would end after `--seconds` (at least one, or two when traced),
and reports medians over its passes.  With `--trace 1` it alternates
untraced and traced
passes, writes the spans of the traced ones to perfbench/out/ and
reports the difference of their wall times as the tracing overhead.

Other modes, for people and for the benchmark's own tests:

    python3 perfbench/run.py --report       every metric of every workload, by name and unit
    python3 perfbench/run.py --seed-check   every workload on two seeds: counts equal, no failures
    python3 perfbench/run.py --smoke        the seed check at the smallest sizes
"""

import argparse
import compileall
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import cli_mix

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("horn-scan", "slice-limit", "cli-mix")
SETUP_PROBES = 5  # set-up is timed this many times before every pass; the median is reported
IMPORT_PROBES = 3
CHILD_TIMEOUT = 150.0  # seconds; a child still running then is killed and counts as failed
CLI_ROUNDS = 2  # each cli-mix pass makes every call twice; the repeat must match byte for byte
BIG_DEPTH = {"full": 4, "smoke": 2}  # the validated nerve document: about 200 KB at depth 4


@dataclass
class Proc:
    start: float
    end: float
    exit_code: int
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Pass:
    traced: bool
    start: float
    end: float
    wall: float = 0.0
    peak_mb: float = 0.0
    records: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    crashed: str | None = None


class Context:
    """What one run needs: paths, its spawner and its scratch directory."""

    def __init__(self, root, workload, seed, size):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.out = os.path.join(HERE, "out")
        self.tmp = os.path.join(self.out, f"tmp-{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        if workload == "cli-mix":
            self.paths, self.names, self.big_bytes = cli_mix.prepare(
                self.tmp, seed, BIG_DEPTH[size]
            )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def spawn(self, args):
        """Run `python3 ARGS` to its end through the spawner."""
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        request = [out_path, err_path, str(CHILD_TIMEOUT), sys.executable] + args
        self.spawner.stdin.write("\t".join(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError("the spawner stopped")
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        start, end, code, maxrss_kb = float(reply[0]), float(reply[1]), int(reply[2]), int(reply[3])
        return Proc(start, end, code, maxrss_kb / 1024, stdout, stderr)

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Passes.


def _worker_output(proc):
    """The worker's JSON report, or None with the reason it is missing."""
    if proc.exit_code != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"worker exit {proc.exit_code}: {' '.join(tail)}"
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "worker printed no report"


def _engine_args(ctx, mode, run_id):
    return [os.path.join(HERE, "engine.py"), ctx.workload, str(ctx.seed), ctx.size, mode, run_id]


def engine_setup(ctx):
    """Seconds from launching a worker to its inputs being ready, or None and a reason."""
    proc = ctx.spawn(_engine_args(ctx, "setup", "setup"))
    data, why = _worker_output(proc)
    return (None, why) if data is None else (data["ready"] - proc.start, None)


def engine_pass(ctx, traced, run_id):
    proc = ctx.spawn(_engine_args(ctx, "trace" if traced else "run", run_id))
    p = Pass(traced, proc.start, proc.end, peak_mb=proc.maxrss_mb)
    data, p.crashed = _worker_output(proc)
    if data is not None:
        p.records = data["records"]
        p.spans = data.get("spans", [])
        p.wall = data["done"] - proc.start
    return p


def _cli_args(ctx, call):
    return ["-m", "finsimp.cli"] + cli_mix.argv_of(call, ctx.paths, ctx.names)


def cli_setup(ctx):
    proc = ctx.spawn(_cli_args(ctx, cli_mix.SETUP_CALL))
    why = cli_mix.check(cli_mix.SETUP_CALL, proc.exit_code, proc.stdout, ctx.names)
    return (None, why) if why else (proc.end - proc.start, None)


def cli_pass(ctx, traced, run_id):
    """Every call, CLI_ROUNDS times; a traced pass opens and closes a span around each."""
    p = Pass(traced, time.monotonic(), 0.0)
    first = {}
    for _ in range(CLI_ROUNDS):
        for call in cli_mix.CALLS:
            if traced:
                span = {"span_id": len(p.spans) + 1, "parent": 0, "run_id": run_id,
                        "name": call.metric, "start": time.monotonic()}
            proc = ctx.spawn(_cli_args(ctx, call))
            if traced:
                span["end"] = time.monotonic()
                p.spans.append(span)
            error = cli_mix.check(call, proc.exit_code, proc.stdout, ctx.names)
            if error is None and first.setdefault(call.metric, proc.stdout) != proc.stdout:
                error = "repeated call printed different bytes"
            p.peak_mb = max(p.peak_mb, proc.maxrss_mb)
            p.records.append({
                "name": call.metric, "layer": call.layer, "metric": call.metric,
                "start": proc.start, "end": proc.end, "counts": None, "error": error,
            })
    p.end = time.monotonic()
    p.wall = p.end - p.start
    if traced:
        p.spans.insert(0, {"span_id": 0, "parent": None, "run_id": run_id, "name": "pass",
                           "start": p.start, "end": p.end})
    return p


def import_probe(ctx):
    """Seconds to `import finsimp.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import finsimp.cli; print(time.perf_counter() - t)"
    proc = ctx.spawn(["-c", code])
    return float(proc.stdout) if proc.exit_code == 0 else None


# ---------------------------------------------------------------------------
# A run: set-up probes, then passes until the time is up.


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    setups: list
    passes: list
    imports: list
    attempted: int
    failed: int
    errors: list
    big_bytes: int = 0
    spans_path: str = ""


def run_workload(root, workload, seed, seconds, trace, size="full"):
    ctx = Context(root, workload, seed, size)
    setup, one_pass = (cli_setup, cli_pass) if workload == "cli-mix" else (engine_setup, engine_pass)
    try:
        began = time.monotonic()
        imports = [import_probe(ctx) for _ in range(IMPORT_PROBES)] if trace and workload == "cli-mix" else []
        kinds = itertools.cycle([False, True]) if trace else itertools.repeat(False)
        probes, passes = [], []
        while True:
            lap = time.monotonic()
            # Set-up probes are spread over the run, so that their median is
            # not taken from one stretch of a machine whose speed drifts.
            probes += [setup(ctx) for _ in range(SETUP_PROBES)]
            run_id = f"{workload}-{seed}-{os.getpid()}-{len(passes)}"
            passes.append(one_pass(ctx, next(kinds), run_id))
            now = time.monotonic()
            if len(passes) >= (2 if trace else 1) and now - began + (now - lap) > seconds:
                break
    finally:
        ctx.close()

    errors = [why for s, why in probes if s is None]
    errors += [p.crashed for p in passes if p.crashed]
    errors += [f"{r['name']}: {r['error']}" for p in passes for r in p.records if r["error"]]
    errors += ["import probe failed" for t in imports if t is None]
    attempted = len(probes) + len(imports) + sum(max(1, len(p.records)) for p in passes)
    run = Run(workload, seed, trace, [s for s, _ in probes if s is not None], passes,
              [t for t in imports if t is not None], attempted, len(errors), errors,
              getattr(ctx, "big_bytes", 0))
    if trace:
        write_spans(ctx, run)
    return run


def write_spans(ctx, run):
    spans = [s for p in run.passes if p.traced for s in p.spans]
    path = os.path.join(ctx.out, f"spans-{run.workload}-seed{run.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    run.spans_path = path


# ---------------------------------------------------------------------------
# Metrics.


def cli_latencies(passes):
    """(p50, tail, tail percentile) of the CLI call times of all passes.

    The tail percentile is the highest that leaves at least ten calls of
    one pass beyond it.  Its value is the nearest-rank quantile of the
    calls of all passes, so it falls on the same calls however many
    passes a run makes.
    """
    per_pass = len(passes[0].records)
    q = max(1, per_pass - 10) / per_pass
    times = sorted(r["end"] - r["start"] for p in passes for r in p.records)
    return statistics.median(times), times[math.ceil(q * len(times)) - 1], 100 * q


def end_to_end(run):
    good = [p for p in run.passes if not p.crashed and p.records]
    if not good or not run.setups:
        return {}, {}
    values = {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(p.wall for p in good),
        "peak_rss_mb": statistics.median(p.peak_mb for p in good),
    }
    notes = {
        "samples": f"{len(run.setups)} set-ups, {len(good)} passes of {len(good[0].records)} calls",
        "error_rate": f"{run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}",
    }
    if run.workload == "cli-mix":
        notes["cli tail percentile"] = f"p{cli_latencies(good)[2]:.1f}"
    return values, notes


def per_layer(run):
    """Per-layer values of one run: medians over its passes of per-pass sums."""
    good = [p for p in run.passes if not p.crashed and p.records]
    if not good:
        return {}
    rounds = CLI_ROUNDS if run.workload == "cli-mix" else 1
    per_pass = []
    for p in good:
        v = {}
        for r in p.records:
            t = (r["end"] - r["start"]) / rounds
            v[f"{r['layer']}.busy_s"] = v.get(f"{r['layer']}.busy_s", 0.0) + t
            if r["metric"]:
                v[r["metric"] + ".s"] = v.get(r["metric"] + ".s", 0.0) + t
                for name, count in (r["counts"] or {}).items():
                    v[f"{r['metric']}.{name}"] = v.get(f"{r['metric']}.{name}", 0) + count
        per_pass.append(v)
    values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}

    vertices = sum(v for k, v in values.items() if k.startswith("limits.") and k.endswith(".vertices"))
    if vertices:
        passers = sum(v for k, v in values.items() if k.startswith("limits.") and k.endswith(".passers"))
        values["limits.passers_per_vertex"] = passers / vertices
    if "dsl.validate_200k.s" in values:
        values["dsl.validate_200k.bytes_per_s"] = run.big_bytes / values["dsl.validate_200k.s"]
    if run.workload == "cli-mix":
        values["cli.call_p50_s"], values["cli.call_tail_s"], _ = cli_latencies(good)
    if run.imports:
        values["cli.import_s"] = statistics.median(run.imports)
    traced = [p.wall for p in good if p.traced]
    untraced = [p.wall for p in good if not p.traced]
    if traced and untraced:
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["trace.spans"] = len(next(p for p in good if p.traced).spans)
    return values


def result_json(run, spec):
    """The result line: every metric of one kind from BENCHMARK.json."""
    if run.trace:
        wanted, values = spec["per_layer"], per_layer(run)
    else:
        wanted, values = spec["end_to_end"], end_to_end(run)[0]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    correct = run.failed == 0 and bool(values)
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def print_table(run, spec, stream):
    values, notes = end_to_end(run)
    layer = per_layer(run) if run.trace else {}
    print(f"# {run.workload} seed {run.seed}{' traced' if run.trace else ''}", file=stream)
    for key, text in notes.items():
        print(f"  {key}: {text}", file=stream)
    for m in spec["end_to_end"] + (spec["per_layer"] if run.trace else []):
        if m["name"] in values or m["name"] in layer:
            v = values.get(m["name"], layer.get(m["name"]))
            print(f"  {m['name']:40s} {v:14.6g} {m['unit']}", file=stream)
    if run.trace:
        print(f"  spans written to {os.path.relpath(run.spans_path)}", file=stream)
    for e in run.errors[:10]:
        print(f"  FAILED {e}", file=stream)


# ---------------------------------------------------------------------------
# Modes.


def seed_check(root, spec, size):
    """Every workload on two seeds, traced: no operation fails and every count is equal."""
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")}
    seeds = (1, 2)
    ok = True
    for w in WORKLOADS:
        runs = [run_workload(root, w, s, 0, True, size) for s in seeds]
        seen = [{k: v for k, v in per_layer(r).items() if k in counts} for r in runs]
        for r in runs:
            print_table(r, spec, sys.stdout)
            if r.failed:
                ok = False
                print(f"{w} seed {r.seed}: {r.failed} of {r.attempted} operations failed: {r.errors[:3]}")
        if seen[0] != seen[1] or runs[0].attempted != runs[1].attempted:
            ok = False
            print(f"{w}: counts differ between seeds {seeds}: {seen}")
        else:
            print(f"{w}: seeds {seeds} agree on {len(seen[0])} counts and {runs[0].attempted} operations")
    print(f"seed check at {size} sizes: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def report(root, spec, seconds, seed):
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            run = run_workload(root, w, seed, seconds, trace)
            print_table(run, spec, sys.stdout)
            ok = ok and run.failed == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="finsimp benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--seed-check", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finsimp", "__init__.py")):
        print("perfbench: no src/finsimp here; run from the root of a finsimp checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # Compile the engine and the benchmark once, so no pass pays for it.
    compileall.compile_dir(os.path.join(root, "src", "finsimp"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    if args.smoke or args.seed_check:
        return seed_check(root, spec, "smoke" if args.smoke else "full")
    if args.report:
        return report(root, spec, seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    run = run_workload(root, args.workload, args.seed, seconds, bool(args.trace))
    print_table(run, spec, sys.stderr)
    print(json.dumps(result_json(run, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
