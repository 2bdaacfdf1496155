"""The four benchmark workloads: generated inputs, requests and output checks.

A workload is a fixed list of ``prevbias`` CLI requests (a *pass*) plus a
check for each request's output.  All inputs derive from the workload seed:
config files and count-table files are written to a scratch directory and the
program only ever sees those files and ``--seed``.  The mix of request kinds
is fixed by position, so the work in a pass barely depends on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

# Population shapes of the bundled configs (shares rho[s][i], testing
# probabilities pi[s][i]); study_edge reuses them at tiny population sizes.
BASE_RHO = (("0.75", "0.05"), ("0.05", "0.15"))
PI_MCAR = ((0.6, 0.6), (0.6, 0.6))
PI_MAR = ((0.1, 0.1), (0.9, 0.9))
PI_MNAR = ((0.2, 0.3), (0.7, 0.8))
MAR_2 = {"type": "mar", "rho_s": ["0.8", "0.2"]}
# Every edge config simulates 2000 replicates, so the requests cost about the
# same and the latency percentiles do not sit on a gap between sizes.
EDGE_SHAPES = {
    "mcar": (BASE_RHO, PI_MCAR, {"type": "mcar"}, (20, 40, 100, 200), 500),
    "mar": (BASE_RHO, PI_MAR, MAR_2, (20, 40, 100, 200), 500),
    "mnar": (BASE_RHO, PI_MNAR, MAR_2, (20, 40, 100, 200), 500),
    "coverage1": ((("0.89", "0.01"), ("0.06", "0.04")), PI_MAR, {"type": "mar", "rho_s": ["0.9", "0.1"]}, (100, 200), 1000),
    "coverage2": ((("0.77", "0.03"), ("0.08", "0.12")), PI_MAR, MAR_2, (100, 200), 1000),
}

# Three-class population for mar count tables and the bounded-share run.
RHO_3 = (("0.45", "0.05"), ("0.2", "0.1"), ("0.1", "0.1"))
PI_3 = ((0.1, 0.1), (0.5, 0.5), (0.9, 0.9))
MAR_3 = {"type": "mar", "rho_s": ["0.5", "0.3", "0.2"]}
RHO_4 = (("0.38", "0.02"), ("0.22", "0.08"), ("0.14", "0.06"), ("0.08", "0.02"))
PI_4 = ((0.1, 0.1), (0.4, 0.4), (0.7, 0.7), (0.9, 0.9))

# Share bounds per class count, each containing the true shares.  Their
# rejection acceptance is about 25%, 5.5% and 1.8%, so the three tables cost
# roughly 1 : 3 : 9 in share integration.
BOUNDS = {
    2: ([0.6, 0.15], [0.85, 0.4]),
    3: ([0.45, 0.15, 0.05], [0.65, 0.35, 0.25]),
    4: ([0.3, 0.15, 0.1, 0.05], [0.5, 0.35, 0.25, 0.2]),
}
TABLE_SAMPLES = 65536
RUN_SHARE_SAMPLES = 262144  # samples prevbias integrates for a scenario
MAXENT_TABLE_SETS = 8
ESTIMATE_POOL = 256
Z_LIMIT = 5.0


@dataclass
class Outcome:
    rc: int
    stdout: str
    out_dir: Path | None


@dataclass
class Request:
    label: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    writes: bool = False  # a `prevbias run`, which gets a fresh --out-dir
    reps: int = 0  # replicates the request simulates


@dataclass
class Workload:
    name: str
    passes: list[list[Request]]  # run in turn; most workloads have one
    cli_table: Path  # count table for the fresh-process `prevbias estimate`
    digests: dict = field(default_factory=dict)  # run label -> out-dir sha256
    stats: dict = field(default_factory=lambda: {"kept": 0, "replicates": 0, "bytes": 0, "runs": 0})


# ---------------------------------------------------------------- inputs


def _floats(rho):
    return [[float(x) for x in row] for row in rho]


def _draw(rng: random.Random, size: int, p: float) -> int:
    """Normal approximation to Bin(size, p), clamped to [0, size]."""
    k = round(size * p + math.sqrt(size * p * (1.0 - p)) * rng.gauss(0.0, 1.0))
    return min(max(k, 0), size)


def count_table(rng, n, rho, pi, mechanism, *, empty=None, zero_positives=False, **extra) -> dict:
    counts = []
    for s, ((r0, r1), (p0, p1)) in enumerate(zip(_floats(rho), pi)):
        healthy = _draw(rng, round(n * r0), p0)
        infected = _draw(rng, round(n * r1), p1)
        if s == empty:
            healthy = infected = 0
        counts.append([healthy + infected, 0] if zero_positives else [healthy, infected])
    return {"N": n, "counts": counts, "mechanism": mechanism, "alpha": 0.05, **extra}


def _log_uniform_n(rng) -> int:
    return int(10 ** rng.uniform(2.0, 6.0))


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def scenario_doc(label, rho, pi, mechanism, n_grid, replicates, seed) -> dict:
    return {
        "label": label,
        "seed": seed,
        "replicates": replicates,
        "alpha": 0.05,
        "n_grid": list(n_grid),
        "population": {"rho": [list(row) for row in rho], "pi": [list(row) for row in pi]},
        "mechanism": mechanism,
    }


# ---------------------------------------------------------------- checks


def _read_table(path: Path, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(path.read_text())
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [{k: (None if v == "nan" else float(v)) for k, v in row.items()} for row in rows]


def dir_digest(path: Path) -> tuple[str, int]:
    """sha256 over every file name and its bytes, and the total size."""
    digest = hashlib.sha256()
    size = 0
    for item in sorted(path.iterdir()):
        data = item.read_bytes()
        size += len(data)
        digest.update(item.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), size


def _run_check(workload: Workload, doc: dict, fmt: str, limit=None, share_sd=None, expect=None):
    """Check one `prevbias run` out-dir against the config it was given.

    ``limit`` enables the Monte Carlo test of ``mean_p0_hat`` at the largest
    N; ``share_sd`` widens it by the share-integration error.  ``expect``
    names the edge branches (discards, boundary) the smallest N must hit.
    """
    grid, reps = doc["n_grid"], doc["replicates"]

    def check(outcome: Outcome) -> list[str]:
        if outcome.rc != 0:
            return [f"exit code {outcome.rc}"]
        out = outcome.out_dir
        files = json.loads((out / "manifest.json").read_text())["files"]
        info = _read_table(out / files["activeinfo"], fmt)
        cover = _read_table(out / files["coverage"], fmt)
        fan = _read_table(out / files["cifan"], fmt)
        problems = []
        if [int(r["n"]) for r in info] != grid or [int(r["n"]) for r in cover] != grid:
            problems.append("table rows do not match the n_grid")
        if len(fan) != len(grid) * reps:
            problems.append(f"cifan has {len(fan)} rows, expected {len(grid) * reps}")
        for row, cov in zip(info, cover):
            n = int(row["n"])
            kept, discarded = int(row["kept"]), int(row["discarded"])
            if int(row["replicates"]) != reps or kept + discarded != reps:
                problems.append(f"N={n}: kept + discarded != replicates")
            if not 0 <= int(cov["boundary_misses"]) <= kept:
                problems.append(f"N={n}: boundary_misses outside [0, kept]")
            missing = sum(1 for f in fan if int(f["n"]) == n and f["p0_hat"] is None)
            if missing != discarded:
                problems.append(f"N={n}: {missing} fan rows without p0_hat, {discarded} discarded")
            workload.stats["kept"] += kept
            workload.stats["replicates"] += reps
        if expect and info:
            first = {"discards": int(info[0]["discarded"]), "boundary": int(cover[0]["boundary_misses"])}
            problems += [f"N={grid[0]}: no {name}" for name in expect if first[name] == 0]
        if limit is not None and info:
            problems += _limit_check(info[-1], [f["p0_hat"] for f in fan if int(f["n"]) == grid[-1]], limit, share_sd)
        digest, size = dir_digest(out)
        workload.stats["bytes"] += size
        workload.stats["runs"] += 1
        if workload.digests.setdefault(doc["label"], digest) != digest:
            problems.append("out-dir bytes differ from an earlier run at this seed")
        return problems

    return check


def _limit_check(row, p0_hats, limit, share_sd) -> list[str]:
    kept = [x for x in p0_hats if x is not None]
    if len(kept) < 2:
        return ["too few kept replicates at the largest N"]
    mean = sum(kept) / len(kept)
    if not math.isclose(mean, row["mean_p0_hat"], rel_tol=1e-9):
        return [f"mean_p0_hat {row['mean_p0_hat']!r} is not the mean of the fan ({mean!r})"]
    var = sum((x - mean) ** 2 for x in kept) / (len(kept) - 1)
    se = math.sqrt(var / len(kept) + (share_sd or 0.0) ** 2)
    z = (mean - limit) / se
    return [] if abs(z) <= Z_LIMIT else [f"mean_p0_hat {mean!r} is {z:+.1f} SE from its limit {limit!r}"]


def _interval_problems(result: dict, target: str, est: float) -> list[str]:
    ci = result.get(target)
    if not 0.0 < est < 1.0:
        return [] if ci is None else [f"{target} given for a boundary estimate"]
    if not ci or len(ci) != 2:
        return [f"{target} missing for an interior estimate"]
    lo, hi = ci
    if not 0.0 < lo <= est <= hi < 1.0:
        return [f"{target} {ci!r} does not bracket {est!r} inside (0, 1)"]
    return []


def estimate_check(doc: dict):
    """Check a `prevbias estimate` reply against plain-Python recomputation."""
    counts, n, mech = doc["counts"], doc["N"], doc["mechanism"]
    kind = mech["type"]
    if kind == "mar":
        shares = [float(x) for x in mech["rho_s"]]
        expect_rc = 2 if oracles.has_empty_weighted_class(counts, shares) else 0
    elif kind == "maxent":
        expect_rc = 2 if any(sum(row) == 0 for row in counts) else 0
    else:
        expect_rc = 0

    def check(outcome: Outcome) -> list[str]:
        if outcome.rc != expect_rc:
            return [f"exit code {outcome.rc}, expected {expect_rc}"]
        if expect_rc:
            return []
        result = json.loads(outcome.stdout)
        problems = []
        p = oracles.p_hat(counts)
        if kind == "mcar":
            p0 = p
        elif kind == "mar":
            p0 = oracles.share_weighted_p0(counts, shares)
        elif "lower" not in mech:
            p0 = oracles.share_weighted_p0(counts, oracles.covid_shares(n, counts))
        else:
            rho = result["rho_hat"]
            problems += _centroid_problems(rho, mech["lower"], mech["upper"], doc["n_samples"])
            p0 = oracles.share_weighted_p0(counts, rho)
        for key, want in (("p_hat", p), ("p0_hat", p0)):
            if not math.isclose(result[key], want, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{key} {result[key]!r}, expected {want!r}")
        problems += _interval_problems(result, "ci_p", p)
        problems += _interval_problems(result, "ci_p0", p0)
        return problems

    return check


def _centroid_problems(rho, lower, upper, n_samples) -> list[str]:
    if not math.isclose(sum(rho), 1.0, abs_tol=1e-9):
        return [f"rho_hat sums to {sum(rho)!r}"]
    mean, sd = oracles.slab_moments(lower, upper)
    for s, (r, l, u, m, d) in enumerate(zip(rho, lower, upper, mean, sd)):
        if not l - 1e-12 <= r <= u + 1e-12:
            return [f"rho_hat[{s}] = {r!r} outside [{l}, {u}]"]
        if abs(r - m) > Z_LIMIT * d / math.sqrt(n_samples) + 1e-12:
            return [f"rho_hat[{s}] = {r!r} is more than {Z_LIMIT} SE from the exact centroid {m!r}"]
    return []


# ---------------------------------------------------------------- workloads


def _estimate_request(path: Path, doc: dict, label: str) -> Request:
    return Request(label=label, argv=["estimate", "--input", str(path)], check=estimate_check(doc))


def _run_request(workload, path, doc, seed, fmt, **check_args) -> Request:
    return Request(
        label=f"run:{doc['label']}",
        argv=["run", "--config", str(path), "--seed", str(seed), "--format", fmt],
        check=_run_check(workload, doc, fmt, **check_args),
        writes=True,
        reps=len(doc["n_grid"]) * doc["replicates"],
    )


def _cli_table(rng, tmp: Path) -> Path:
    return _write_json(tmp / "cli_table.json", count_table(rng, 10_000, BASE_RHO, PI_MAR, MAR_2))


def build_study(seed: int, root: Path, tmp: Path) -> Workload:
    configs = sorted((root / "configs").glob("*.json"))
    if not configs:
        raise FileNotFoundError(f"no bundled configs under {root / 'configs'}")
    wl = Workload("study", [[]], _cli_table(random.Random(seed), tmp))
    for path in configs:
        doc = json.loads(path.read_text())
        rho, pi = _floats(doc["population"]["rho"]), doc["population"]["pi"]
        if doc["mechanism"]["type"] == "mcar":
            limit = oracles.testing_prevalence(rho, pi)
        else:
            limit = oracles.corrected_limit(rho, pi)
        wl.passes[0].append(_run_request(wl, path, doc, seed, "csv", limit=limit))
    return wl


def build_study_edge(seed: int, root: Path, tmp: Path) -> Workload:
    wl = Workload("study_edge", [[]], _cli_table(random.Random(seed), tmp))
    for label, (rho, pi, mech, grid, replicates) in EDGE_SHAPES.items():
        doc = scenario_doc(f"edge_{label}", rho, pi, mech, grid, replicates, seed)
        path = _write_json(tmp / f"edge_{label}.json", doc)
        expect = {"mar": ("discards",), "mcar": ("boundary",)}.get(label)
        wl.passes[0].append(_run_request(wl, path, doc, seed, "json", expect=expect))
    return wl


# Position in a 16-table cycle -> (classes, mechanism, special case).  The
# specials are an empty class under mcar (exit 0) and mar (exit 2), and
# tables without positives (boundary estimates, no intervals).
_ESTIMATE_CYCLE = [
    (2, "mcar", None), (2, "mar", None), (3, "mar", None), (2, "maxent", None),
    (3, "mcar", "empty"), (2, "mar", "empty"), (3, "mar", None), (2, "maxent", None),
    (2, "mcar", None), (2, "mar", None), (3, "mar", "zero"), (2, "maxent", "zero"),
    (3, "mcar", None), (2, "mar", None), (3, "mar", None), (2, "maxent", None),
]


def build_estimate(seed: int, root: Path, tmp: Path) -> Workload:
    rng = random.Random(seed)
    wl = Workload("estimate", [[]], _cli_table(rng, tmp))
    for i in range(ESTIMATE_POOL):
        s_count, kind, special = _ESTIMATE_CYCLE[i % len(_ESTIMATE_CYCLE)]
        rho, pi = (BASE_RHO, PI_MAR) if s_count == 2 else (RHO_3, PI_3)
        if kind == "mcar":
            pi, mech = tuple((0.6, 0.6) for _ in rho), {"type": "mcar"}
        elif kind == "mar":
            mech = MAR_2 if s_count == 2 else MAR_3
        else:
            mech = {"type": "maxent"}
        doc = count_table(
            rng, _log_uniform_n(rng), rho, pi, mech,
            empty=0 if special == "empty" else None, zero_positives=special == "zero",
        )
        path = _write_json(tmp / f"table_{i:03d}.json", doc)
        wl.passes[0].append(_estimate_request(path, doc, f"estimate:{kind}{s_count}"))
    return wl


def build_maxent(seed: int, root: Path, tmp: Path) -> Workload:
    """Each pass estimates one set of bounded-share tables at S = 2, 3, 4 and
    runs one bounded-share scenario (S = 3); passes cycle through the sets."""
    rng = random.Random(seed)
    wl = Workload("maxent", [], _cli_table(rng, tmp))
    lower, upper = BOUNDS[3]
    doc = scenario_doc("maxent3", RHO_3, PI_3, {"type": "maxent", "lower": lower, "upper": upper}, (1000, 10000), 500, seed)
    run_path = _write_json(tmp / "maxent3.json", doc)
    centroid, sd = oracles.slab_moments(lower, upper)
    rates = oracles.class_positive_rates(_floats(RHO_3), PI_3)
    share_sd = sum(q * d for q, d in zip(rates, sd)) / math.sqrt(RUN_SHARE_SAMPLES)
    run = _run_request(wl, run_path, doc, seed, "csv",
                       limit=oracles.corrected_limit(_floats(RHO_3), PI_3, centroid), share_sd=share_sd)
    pops = {2: (BASE_RHO, PI_MAR), 3: (RHO_3, PI_3), 4: (RHO_4, PI_4)}
    for k in range(MAXENT_TABLE_SETS):
        wl.passes.append([])
        for s_count, (rho, pi) in pops.items():
            lo, hi = BOUNDS[s_count]
            table = count_table(
                rng, _log_uniform_n(rng), rho, pi, {"type": "maxent", "lower": lo, "upper": hi},
                seed=rng.getrandbits(63), n_samples=TABLE_SAMPLES,
            )
            path = _write_json(tmp / f"bounded_{k}_{s_count}.json", table)
            wl.passes[-1].append(_estimate_request(path, table, f"estimate:maxent{s_count}"))
        wl.passes[-1].append(run)
    return wl


BUILDERS = {
    "study": build_study,
    "study_edge": build_study_edge,
    "estimate": build_estimate,
    "maxent": build_maxent,
}
