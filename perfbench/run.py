"""prevbias benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload study --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with spans recorded around every layer and reports
the per-layer metrics instead.  Human-readable lines come first; the last
line of standard output is the JSON result.  The package is imported from
``src/`` of the checkout; every scratch file goes to ``.bench_work/``.

The load generator is this process: one client in a closed loop, calling
``prevbias.cli.main`` in-process and sending the next request only after the
previous one returned.  Fresh interpreters are started only for the set-up
time and the fresh-process ``prevbias estimate`` time.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as tracing
from workloads import BUILDERS, Outcome, Request, Workload, estimate_check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ROUND_PASSES_S = 2.0
IMPORTTIME_SPAWNS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
SPAWN_TIMEOUT_S = 120
MAX_PROBLEMS_SHOWN = 5


def _spawn(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S
    )
    return proc, time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and
    its value; the maximum when there are too few samples."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


class Runner:
    """Sends a workload's requests to ``prevbias.cli.main`` and checks replies."""

    def __init__(self, workload: Workload, tmp: Path, run_args: list[str]):
        from prevbias import cli

        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.run_args = run_args  # extra arguments for `prevbias run`
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sent = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def request(self, req: Request, tracer: tracing.Tracer | None) -> float:
        argv = list(req.argv)
        out_dir = None
        if req.writes:
            out_dir = self.tmp / f"out{self.sent}"
            argv += self.run_args + ["--out-dir", str(out_dir)]
        self.sent += 1
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            span = None
            if tracer:
                tracer.request = self.sent
                span = tracer.open("cli.main")
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            finally:
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.close(span)
        try:
            problems = req.check(Outcome(rc, stdout.getvalue(), out_dir))
        except Exception as exc:  # malformed output: count it, keep measuring
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.record(req.label, problems)
        return elapsed

    def run_pass(self, index: int, tracer: tracing.Tracer | None = None) -> list[float]:
        passes = self.workload.passes
        return [self.request(req, tracer) for req in passes[index % len(passes)]]

    def fresh_estimate(self) -> float:
        """One `python -m prevbias estimate` in a new interpreter, checked."""
        path = self.workload.cli_table
        proc, elapsed = _spawn(["-m", "prevbias", "estimate", "--input", str(path)])
        check = estimate_check(json.loads(path.read_text()))
        self.record("fresh estimate", check(Outcome(proc.returncode, proc.stdout, None)))
        return elapsed


def setup_time() -> float:
    """Wall time from a fresh interpreter to ``import prevbias`` done."""
    proc, elapsed = _spawn(["-c", "import prevbias"])
    if proc.returncode != 0:
        raise RuntimeError(f"import prevbias failed: {proc.stderr.strip()}")
    return elapsed


def measure(runner: Runner, seconds: float) -> dict:
    """Rounds of one set-up spawn, one fresh-process estimate and at least
    ROUND_PASSES_S of in-process passes, until ``seconds`` have gone by.
    Interleaving spreads every metric's samples over the whole run, because
    the speed of a shared machine drifts over tens of seconds.  The tail is
    taken per pass and the median over passes reported, so that one burst of
    stalls does not set it."""
    runner.run_pass(0)  # warm-up: lazy imports and caches inside the package
    samples = {"setup": [], "cli": [], "passes": []}  # passes: request times
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds:
        samples["setup"].append(setup_time())
        samples["cli"].append(runner.fresh_estimate())
        round_start = time.perf_counter()
        while True:
            samples["passes"].append(runner.run_pass(index))
            index += 1
            if time.perf_counter() - round_start >= ROUND_PASSES_S:
                break
    (WORK / f"samples-{runner.workload.name}.json").write_text(json.dumps(samples) + "\n")
    passes = samples["passes"]
    tails = [tail(times) for times in passes]
    every = [t for times in passes for t in times]
    print(f"# {len(samples['setup'])} rounds, {len(passes)} passes, {len(every)} requests; latency_tail_ms "
          f"is the median over passes of p{statistics.median(p for p, _ in tails):.1f} "
          f"of {statistics.median(len(times) for times in passes):.0f} requests")
    return {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "wall_s": (statistics.median(sum(times) for times in passes), "s"),
        "latency_p50_ms": (statistics.median(every) * 1e3, "ms"),
        "latency_tail_ms": (statistics.median(t for _, t in tails) * 1e3, "ms"),
        "cli_estimate_s": (statistics.median(samples["cli"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _accepts_threads(cli) -> bool:
    try:
        with redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(["run", "--config", "x", "--threads", "1"])
    except (SystemExit, AttributeError):
        return False
    return True


def replicate_rates(seed: int) -> dict:
    """Replicates per second of single-grid mar runs through run_experiment."""
    from prevbias import mar_scenario, run_experiment

    out = {}
    for n, key in ((1_000, "n1e3"), (1_000_000, "n1e6")):
        cfg = mar_scenario(n_grid=(n,), replicates=1000, seed=seed)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_experiment(cfg)
            times.append(time.perf_counter() - start)
        out[key] = cfg.replicates / statistics.median(times)
    return out


def measure_traced(runner: Runner, seconds: float, seed: int) -> dict:
    """Import-time breakdown, replicate rates (study only), then untraced and
    traced passes in turn until ``seconds`` have gone by."""
    runner.run_pass(0)
    start = time.perf_counter()
    breakdowns = []
    for _ in range(IMPORTTIME_SPAWNS):
        proc, _ = _spawn(["-X", "importtime", "-c", "import prevbias"])
        breakdowns.append(tracing.import_breakdown(proc.stderr))
    setup = tracing.median_breakdown(breakdowns)
    rates = replicate_rates(seed) if runner.workload.name == "study" else None

    tracer = tracing.Tracer()
    plain, traced = [], []
    traced_reps = 0
    index = 1
    while time.perf_counter() - start < seconds or not traced:
        plain.append(sum(runner.run_pass(index)))
        tracer.install()
        try:
            traced.append(sum(runner.run_pass(index, tracer)))
        finally:
            tracer.uninstall()
        passes = runner.workload.passes
        traced_reps += sum(req.reps for req in passes[index % len(passes)])
        index += 1
    tracer.dump(WORK / f"trace-{runner.workload.name}.jsonl.gz")
    total, attributed = tracer.self_time_under("experiments.run")
    if total:
        print(f"# self times under experiments.run add to {attributed:.4f} s of {total:.4f} s")
    return layer_metrics(tracer, runner, len(traced), traced_reps, setup, rates,
                         statistics.median(traced) - statistics.median(plain))


# metric -> (unit, span names it is derived from; None when not from spans)
PER_LAYER = {
    "rng.generator_us": ("us", ["rng.generator"]),
    "rng.calls": ("count", ["rng.generator"]),
    "sampler.draw_us": ("us", ["sampler.draw"]),
    "sampler.validate_us": ("us", ["sampler.validate"]),
    "sampler.calls": ("count", ["sampler.draw"]),
    "estimators.p_hat_us": ("us", ["estimators.p_hat"]),
    "estimators.p0_us": ("us", ["estimators.p0"]),
    "estimators.discards": ("count", ["estimators.p_hat", "estimators.p0"]),
    "estimators.build_bundle_us": ("us", ["estimators.build_bundle"]),
    "asymptotics.plugin_inputs_us": ("us", ["asymptotics.plugin_inputs"]),
    "asymptotics.variances_us": ("us", ["asymptotics.variances"]),
    "asymptotics.sigma_us": ("us", ["asymptotics.sigma"]),
    "asymptotics.ci_us": ("us", ["asymptotics.ci"]),
    "asymptotics.boundary": ("count", ["asymptotics.ci"]),
    "asymptotics.degenerate": ("count", ["asymptotics.variances"]),
    "experiments.run_s": ("s", ["experiments.run"]),
    "experiments.self_s": ("s", ["experiments.run"]),
    "experiments.us_per_rep": ("us", ["experiments.run"]),
    "experiments.kept_ratio": ("ratio", None),
    "experiments.reps_per_s_n1e3": ("1/s", None),
    "experiments.reps_per_s_n1e6": ("1/s", None),
    "experiments.projected_500k_n1e6_s": ("s", None),
    "maxent.expected_shares_ms": ("ms", ["maxent.expected_shares"]),
    "maxent.samples": ("count", ["maxent.expected_shares"]),
    "maxent.acceptance_rate": ("ratio", ["maxent.expected_shares"]),
    "config.load_scenario_ms": ("ms", ["config.load_scenario"]),
    "config.parse_count_table_us": ("us", ["config.parse_count_table"]),
    "cli.parser_us": ("us", ["cli.cmd_estimate", "cli.cmd_run"]),
    "cli.estimate_us": ("us", ["cli.cmd_estimate"]),
    "cli.write_ms": ("ms", ["cli.write_table"]),
    "cli.bytes_written": ("bytes", None),
    "model.population_spec_us": ("us", ["model.population_spec"]),
    "model.calls": ("count", ["model.population_spec"]),
    "setup.numpy_s": ("s", None),
    "setup.scipy_s": ("s", None),
    "setup.prevbias_self_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "trace.spans": ("count", None),
}


def layer_metrics(tracer, runner, passes, reps, setup, rates, overhead) -> dict:
    spans = tracer.summarize()

    def per_call(name, field="total_s", scale=1e6):
        entry = spans.get(name)
        return entry[field] / entry["calls"] * scale if entry and entry["calls"] else 0.0

    def calls(name):
        return spans[name]["calls"] / passes if name in spans else 0.0

    def errors(names, kinds):
        return sum(spans[n]["errors"][k] for n in names if n in spans for k in kinds) / passes

    stats = runner.workload.stats
    runs = spans.get("experiments.run", {}).get("total_s", 0.0)
    writes = spans.get("cli.write_table", {}).get("total_s", 0.0)
    cmd_runs = spans.get("cli.cmd_run", {}).get("calls", 0)
    values = {
        "rng.generator_us": per_call("rng.generator"),
        "rng.calls": calls("rng.generator"),
        "sampler.draw_us": per_call("sampler.draw", "self_s"),
        "sampler.validate_us": per_call("sampler.validate"),
        "sampler.calls": calls("sampler.draw"),
        "estimators.p_hat_us": per_call("estimators.p_hat"),
        "estimators.p0_us": per_call("estimators.p0"),
        "estimators.discards": errors(["estimators.p_hat", "estimators.p0"], tracing.DISCARD_ERRORS),
        "estimators.build_bundle_us": per_call("estimators.build_bundle"),
        "asymptotics.plugin_inputs_us": per_call("asymptotics.plugin_inputs"),
        "asymptotics.variances_us": per_call("asymptotics.variances"),
        "asymptotics.sigma_us": per_call("asymptotics.sigma"),
        "asymptotics.ci_us": per_call("asymptotics.ci"),
        "asymptotics.boundary": errors(["asymptotics.ci"], ["BoundaryEstimate"]),
        "asymptotics.degenerate": tracer.degenerate / passes,
        "experiments.run_s": per_call("experiments.run", scale=1.0),
        "experiments.self_s": per_call("experiments.run", "self_s", scale=1.0),
        "experiments.us_per_rep": runs / reps * 1e6 if reps else 0.0,
        "maxent.expected_shares_ms": per_call("maxent.expected_shares", scale=1e3),
        "maxent.samples": tracer.share_samples / spans["maxent.expected_shares"]["calls"]
        if "maxent.expected_shares" in spans else 0.0,
        "maxent.acceptance_rate": tracer.share_samples / tracer.share_proposals if tracer.share_proposals else 0.0,
        "config.load_scenario_ms": per_call("config.load_scenario", scale=1e3),
        "config.parse_count_table_us": per_call("config.parse_count_table"),
        "cli.parser_us": per_call("cli.main", "self_s"),
        "cli.estimate_us": per_call("cli.cmd_estimate", "self_s"),
        "cli.write_ms": writes / cmd_runs * 1e3 if cmd_runs else 0.0,
        "model.population_spec_us": per_call("model.population_spec"),
        "model.calls": calls("model.population_spec"),
        "setup.numpy_s": setup["numpy"],
        "setup.scipy_s": setup["scipy"],
        "setup.prevbias_self_s": setup["prevbias_self"],
        "trace.overhead_s": overhead,
        "trace.spans": len(tracer.spans) / passes,
    }
    if stats["runs"]:
        values["experiments.kept_ratio"] = stats["kept"] / stats["replicates"]
        values["cli.bytes_written"] = stats["bytes"] / stats["runs"]
    if rates:
        values["experiments.reps_per_s_n1e3"] = rates["n1e3"]
        values["experiments.reps_per_s_n1e6"] = rates["n1e6"]
        values["experiments.projected_500k_n1e6_s"] = 500_000 / rates["n1e6"]
    out = {}
    for name, (unit, sources) in PER_LAYER.items():
        value = values.get(name, 0.0)
        if sources and all(s in tracer.missing for s in sources):
            note = "not observed"
        elif name not in values:
            note = "not measured on this workload"
        elif sources and not any(s in spans for s in sources):
            note = "idle on this workload"
        else:
            note = ""
        out[name] = (value, unit, note)
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for pattern in ("src/prevbias/**/*.py", "configs/*.json", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prevbias" / "__init__.py").is_file():
        print(f"error: no prevbias sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prevbias
    from prevbias import cli

    if Path(prevbias.__file__).resolve().parent != SRC / "prevbias":
        print(f"error: imported prevbias from {prevbias.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    digest_file = WORK / f"digests-{args.workload}-{args.seed}-{source_digest()}.json"
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = BUILDERS[args.workload](args.seed, ROOT, tmp)
        if digest_file.exists():
            workload.digests.update(json.loads(digest_file.read_text()))
        # `prevbias run` gets one worker thread while it has the flag.  With its
        # default of one thread per core, two GIL-bound threads on a shared
        # 2-core host turned drifts in machine speed into 35-66% run-to-run
        # spreads, against 8-12% for single-threaded work measured alongside.
        # One thread also lets the traced run's spans nest, so self times add up.
        run_args = ["--threads", "1"] if _accepts_threads(cli) else []
        runner = Runner(workload, tmp, run_args)
        if args.trace:
            layers = measure_traced(runner, args.seconds, args.seed)
            metrics = {name: (value, unit) for name, (value, unit, _) in layers.items()}
            for name, (value, unit, note) in layers.items():
                print(f"{args.workload:<11} {name:<34} {value:>14.6g} {unit:<6} {note}")
        else:
            metrics = measure(runner, args.seconds)
            for name, (value, unit) in metrics.items():
                print(f"{args.workload:<11} {name:<16} {value:>12.6g} {unit}")
        if workload.digests:
            digest_file.write_text(json.dumps(workload.digests, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if any(req.writes for p in workload.passes for req in p):
        print(f"# prevbias run threads: {run_args[1] if run_args else 'no --threads flag'}")
    print(f"# attempted {runner.attempted}, failed {runner.failed}, "
          f"error_rate {runner.failed / max(runner.attempted, 1):.6g}")
    for problem in runner.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
