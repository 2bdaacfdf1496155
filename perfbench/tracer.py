"""Span tracing of prevbias from outside the package, and per-layer metrics.

``Tracer.install`` replaces each public function at the name its calling
module looks it up by (``prevbias.experiments.draw_outcome`` and so on) with
a wrapper that records a span: name, start, end, parent span, request id and
the exception raised, if any.  Spans stay in memory until the run ends.  A
name that no longer exists is skipped and its metrics are reported as not
observed, so refactors inside the package do not break the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import re
import statistics
import threading
import time
from collections import defaultdict

# (span name, module, attribute at which that module's code looks it up)
WRAPS = [
    ("cli.cmd_estimate", "prevbias.cli", "cmd_estimate"),
    ("cli.cmd_run", "prevbias.cli", "cmd_run"),
    ("cli.write_table", "prevbias.cli", "_write_table"),
    ("config.load_scenario", "prevbias.cli", "load_scenario"),
    ("config.parse_count_table", "prevbias.cli", "parse_count_table"),
    ("experiments.run", "prevbias.cli", "run_experiment"),
    ("estimators.build_bundle", "prevbias.cli", "build_bundle"),
    ("estimators.p_hat", "prevbias.experiments", "p_hat"),
    ("estimators.p_hat", "prevbias.estimators", "p_hat"),
    ("estimators.p0", "prevbias.experiments", "share_weighted_p0"),
    ("estimators.p0", "prevbias.estimators", "share_weighted_p0"),
    ("asymptotics.plugin_inputs", "prevbias.cli", "mechanism_plugin_inputs"),
    ("asymptotics.plugin_inputs", "prevbias.experiments", "mechanism_plugin_inputs"),
    ("asymptotics.variances", "prevbias.cli", "plugin_variances"),
    ("asymptotics.variances", "prevbias.experiments", "plugin_variances"),
    ("asymptotics.sigma", "prevbias.cli", "sigma_p"),
    ("asymptotics.sigma", "prevbias.cli", "sigma_p0"),
    ("asymptotics.sigma", "prevbias.cli", "sigma_it"),
    ("asymptotics.sigma", "prevbias.experiments", "sigma_p0"),
    ("asymptotics.ci", "prevbias.cli", "ci_logit_prevalence"),
    ("asymptotics.ci", "prevbias.cli", "ci_active_info"),
    ("asymptotics.ci", "prevbias.experiments", "ci_logit_prevalence"),
    ("maxent.expected_shares", "prevbias.experiments", "expected_shares"),
    ("maxent.expected_shares", "prevbias.estimators", "expected_shares"),
    ("model.population_spec", "prevbias.experiments", "PopulationSpec"),
    ("rng.generator", "prevbias.rng", "RngStream.generator"),
    ("sampler.draw", "prevbias.experiments", "draw_outcome"),
    ("sampler.validate", "prevbias.sampler", "TestingOutcome"),
    ("sampler.validate", "prevbias.config", "TestingOutcome"),
]

DISCARD_ERRORS = ("EmptySample", "EmptyStratum")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request, error]
        self.request = 0
        self.missing: set[str] = set()  # span names none of whose targets exist
        self.degenerate = 0
        self.share_samples = 0
        self.share_proposals = 0.0
        self._local = threading.local()
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else None, self.request, None])
        stack.append(index)
        return index

    def close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if error is not None:
            span[5] = type(error).__name__
        self._stack().pop()

    def _observe(self, name: str, result) -> None:
        if name == "asymptotics.variances" and getattr(result, "degenerate", False):
            self.degenerate += 1
        elif name == "maxent.expected_shares":
            n = getattr(result, "n_samples", 0)
            rate = getattr(result, "acceptance_rate", 0.0)
            if n and rate:
                self.share_samples += n
                self.share_proposals += n / rate

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn, updated=())  # some targets are classes
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, exc)
                raise
            tracer.close(index)
            tracer._observe(name, result)
            return result

        return wrapper

    def install(self) -> None:
        found = set()
        for name, module_name, attr in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
            found.add(name)
        self.missing = {name for name, _, _ in WRAPS} - found

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request", "error")
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # ------------------------------------------------------------ summaries

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds, errors by type."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": defaultdict(int)})
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child[i]) / 1e9
            if error:
                entry["errors"][error] += 1
        return out

    def self_time_under(self, name: str) -> tuple[float, float]:
        """Total duration of spans called ``name`` and the sum of the self
        times of those spans and every span below them."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == name}
        child = [0] * len(self.spans)
        under = [False] * len(self.spans)
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
                under[i] = under[parent] or parent in roots
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        attributed = sum(
            span[2] - span[1] - child[i] for i, span in enumerate(self.spans) if i in roots or under[i]
        )
        return total / 1e9, attributed / 1e9


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and prevbias's own modules, from
    the ``python -X importtime`` report (children are listed before their
    parent, one indent level deeper)."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    totals = {"numpy": 0, "scipy": 0, "prevbias_self": 0}
    stack: list[tuple[int, str]] = []  # ancestors of the current row, read in reverse
    for self_us, cumulative_us, depth, module in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        top = module.split(".")[0]
        if top in ("numpy", "scipy") and parent.split(".")[0] != top:
            totals[top] += cumulative_us
        if top == "prevbias":
            totals["prevbias_self"] += self_us
        stack.append((depth, module))
    return {key: value / 1e6 for key, value in totals.items()}


def median_breakdown(reports: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in reports) for key in reports[0]}
