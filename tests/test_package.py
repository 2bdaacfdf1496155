"""The package surface: what `import prevbias` loads, what it exports, and the
README quickstart.

`import prevbias` and `prevbias estimate` compute on Python numbers and load
no numpy, and `prevbias estimate` loads no dataclasses, typing or pathlib and
none of the engine; the study engine's names are imported on first use.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import prevbias

README = Path(__file__).resolve().parents[1] / "README.md"

# the export list before the estimators moved off numpy, less the helpers only
# tests called (`p0_hat_mcar`, the biased estimate under another name;
# `draw_count_matrices`, a bulk draw from one stream; `p0_hat_general`, a
# per-cell weighted estimate, with `DivisionByZeroWeight`, its one error;
# `conditional_targets`, the positive rate expected from the true class
# prevalences; and `p0_hat_maxent`, the maxent estimate that `build_bundle`
# gives), and less the four scalar wrappers around the class-sum kernel
# (`share_weighted_p0`, `p0_hat_mar`, `mechanism_plugin_inputs` and
# `plugin_variances`), whose estimate and variances `build_bundle` takes from
# one kernel pass, and less the interval helpers that only tests called once
# `prevbias estimate` ran the interval kernels (`sigma_p`, `sigma_p0`,
# `ci_logit_prevalence`, `ci_active_info`, their `ConfidenceInterval` and
# `BoundaryEstimate`, the error of a boundary estimate), and less
# `active_info_estimates`, the information estimate that `build_bundle`
# gives as `i_t_hat`)
EXPORTS = [
    "AsymptoticQuantities", "EmptyRegion",
    "EmptySample", "EmptyStratum", "EstimateBundle", "ExperimentReport",
    "InvalidSpec", "Mechanism", "MechanismMismatch", "NegativeVarianceCombination",
    "PopulationSpec", "PrevBiasError", "ReportRow", "RngStream", "ScenarioConfig", "SimplexSlab",
    "TestingOutcome", "TooLarge", "UndefinedActiveInfo", "VarianceEstimates", "ZeroTestingMass",
    "active_info_testing", "asymptotics", "build_bundle",
    "corrected_prevalence_limit",
    "coverage_scenario", "covid_shares", "draw_outcome", "enumerate_outcomes", "errors",
    "estimators", "exact_quantities", "experiments",
    "mar_scenario", "maxent", "mcar_scenario", "mean_shares",
    "mnar_scenario", "model", "normal_quantile",
    "p_hat", "population", "population_prevalence", "rng", "run_experiment", "sampler",
    "scenarios", "sigma_it", "testing_prevalence",
]

# one count table per share-vector branch
TABLES = {
    "mcar": {"N": 10000, "counts": [[380, 20], [40, 60]], "mechanism": {"type": "mcar"}},
    "mar": {
        "N": 10000, "counts": [[380, 20], [40, 60]], "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]},
    },
    "maxent closed form": {"N": 1000, "counts": [[170, 30], [40, 60]], "mechanism": {"type": "maxent"}},
    "bounded maxent": {
        "N": 10000,
        "counts": [[450, 50], [200, 100], [100, 100]],
        "mechanism": {"type": "maxent", "lower": [0.45, 0.15, 0.05], "upper": [0.65, 0.35, 0.25]},
    },
}

# runs the command line in process, then reports its status, the number of
# class-sum kernel passes and every numpy module loaded on stderr's last line
CLI = """
import sys
from prevbias import asymptotics
from prevbias.cli import main
passes, kernel = [], asymptotics._class_sums
asymptotics._class_sums = lambda *columns: passes.append(1) or kernel(*columns)
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, len(passes), sorted(m for m in sys.modules if m.split(".")[0] == "numpy"), file=sys.stderr)
"""

# notes the modules loaded at start-up (`site` may load some), imports the
# command line and estimates each table given as an argument in process, then
# reports the modules added on stderr's last line, as JSON
IMPORTS = """
import sys
start = set(sys.modules)
import io, json
from prevbias.cli import main
for table in sys.argv[1:]:
    sys.stdin = io.TextIOWrapper(io.BytesIO(table.encode()))
    assert main(["estimate"]) == 0
print(json.dumps(sorted(set(sys.modules) - start)), file=sys.stderr)
"""


def _run(code, *args, stdin=""):
    proc = subprocess.run([sys.executable, "-c", code, *args], input=stdin, capture_output=True, text=True)
    return proc.stdout, proc.stderr.strip().splitlines()[-1:]


def test_import_loads_no_numpy():
    code = "import sys, prevbias; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert _run(code) == ("[]\n", [])


def test_import_and_estimate_load_only_what_they_compute_with():
    code = "import sys; start = set(sys.modules); import prevbias; print(sorted(set(sys.modules) - start))"
    assert _run(code) == ("['prevbias']\n", [])
    added = json.loads(_run(IMPORTS, *map(json.dumps, TABLES.values()))[1][0])
    assert "prevbias.estimators" in added
    unneeded = {"dataclasses", "inspect", "typing", "pathlib", "prevbias.population"}
    assert [m for m in added if m in unneeded or m.split(".")[0] == "numpy"] == []


def test_version_and_estimate_load_no_numpy():
    assert _run(CLI, "--version")[1] == ["0 0 []"]
    for branch, table in TABLES.items():
        stdout, report = _run(CLI, "estimate", stdin=json.dumps(table))
        assert report == ["0 1 []"], branch  # one class-sum pass gives p0 and V1-V4
        reply = json.loads(stdout)
        assert reply["warnings"] == [] and reply["sigma_p0"] > 0.0, branch


def test_exports_resolve_and_load_the_engine_on_first_use():
    assert sorted(prevbias.__all__) == EXPORTS
    namespace = {}
    for name in EXPORTS:
        exec(f"from prevbias import {name}", namespace)
        assert namespace[name] is getattr(prevbias, name)
    assert prevbias.run_experiment is prevbias.experiments.run_experiment


def test_readme_quickstart_runs_and_prints_what_its_comments_say(capsys):
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README.read_text(), re.S)[1]
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.2"
    assert lines[1].startswith("0.538")
    assert round(float(lines[2]), 4) == 0.9904
    i_t_hat, sigma = map(float, lines[3].split())
    assert 0.8 < i_t_hat < 1.2 and 0.0 < sigma < 0.05
    assert lines[4] == "(0.8, 0.2)"
    assert re.fullmatch(r"\(0\.\d+, 0\.\d+\)", lines[5])
    assert [line.split()[0] for line in lines[6:]] == ["1000", "10000", "100000", "1000000"]
