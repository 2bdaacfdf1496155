"""Golden outputs: `prevbias run` out-dirs match recorded sha256 digests.

Each digest covers the sorted file names of one out-dir and their bytes
(tables, per-replicate fan and manifest), so any change to the replicate
streams, the estimators, the intervals, the aggregation or the number
formatting shows up here.  The digests were recorded from the per-replicate
engine that preceded the batched one; the batched engine must reproduce them
byte for byte.

To print the digests of the current tree instead of checking them:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from prevbias.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Bundled population shape at N = 20..100 with infection-dependent testing:
# the smallest sizes discard replicates (a weighted class without tested
# individuals) and give boundary estimates (0 or 1) and degenerate variances.
TINY_DOC = {
    "label": "tiny",
    "seed": 7,
    "replicates": 400,
    "alpha": 0.05,
    "n_grid": [20, 40, 100],
    "population": {"rho": [["0.75", "0.05"], ["0.05", "0.15"]], "pi": [[0.2, 0.3], [0.7, 0.8]]},
    "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]},
}

# Three symptom classes with bounded unknown shares (exact maxent centroid).
MAXENT3_DOC = {
    "label": "maxent3",
    "seed": 11,
    "replicates": 300,
    "alpha": 0.1,
    "n_grid": [200, 1000],
    "population": {
        "rho": [["0.45", "0.05"], ["0.2", "0.1"], ["0.1", "0.1"]],
        "pi": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]],
    },
    "mechanism": {"type": "maxent", "lower": [0.45, 0.15, 0.05], "upper": [0.65, 0.35, 0.25]},
}

GOLDEN = {
    ("mcar", "csv"): "0a469d19988c2808345fdda52d7101f2b55a66430250abbee610bb9ef4affc41",
    ("mar", "csv"): "2a14ae46e716238c51bcbf569f409696115e155dda0333c8b7dcb6aff62d902a",
    ("mar", "json"): "31743e51360b5de4f77295916d7eed5534aef539a229e3e1ef64ad0b7ba015e4",
    ("mnar", "csv"): "a31521905f6c7b1ddfefc4fbe9e8403111da3b1d00f8e6c9ee596de7ce1f2738",
    ("coverage1", "csv"): "b4828e292277666dc8f448fc892554940e0baba314136efbe35cf04b49c3b8e4",
    ("coverage2", "csv"): "c8c3accac8690731d56a04ff57d78e5cb2d52b488e1d31017812e5d78ee9c817",
    ("tiny", "csv"): "cd8e1e375541b708bb4ad3688692cba7331154e18d9c89c7b1eaa6f315f21967",
    ("tiny", "json"): "8541ee6ff4e8e7592da742989a6bc389b3f689661414a17a9ef5de0512e68ee1",
    ("maxent3", "csv"): "c031d7eb9084ee8f0aa3e29e11d39a176dd685dea37019fd9c9a4fd6f15d5b40",
}


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(path.iterdir()):
        digest.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    return digest.hexdigest()


def config_path(name: str, tmp: Path) -> Path:
    doc = {"tiny": TINY_DOC, "maxent3": MAXENT3_DOC}.get(name)
    if doc is None:
        return CONFIG_DIR / f"{name}.json"
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def run_digest(name: str, fmt: str, tmp: Path) -> str:
    out = tmp / f"out_{name}_{fmt}"
    argv = ["run", "--config", str(config_path(name, tmp)), "--out-dir", str(out), "--format", fmt]
    assert main(argv) == 0
    return dir_digest(out)


@pytest.mark.parametrize(("name", "fmt"), sorted(GOLDEN))
def test_out_dir_matches_golden_digest(name, fmt, tmp_path):
    assert run_digest(name, fmt, tmp_path) == GOLDEN[name, fmt]


def test_edge_config_reaches_the_edge_branches(tmp_path):
    assert main(["run", "--config", str(config_path("tiny", tmp_path)), "--out-dir", str(tmp_path),
                 "--format", "json"]) == 0
    rows = json.loads((tmp_path / "tiny_coverage.json").read_text())
    assert rows[0]["discarded"] > 0
    assert rows[0]["boundary_misses"] > 0
    # the json reads back as the benchmark's out-dir check reads it: counts
    # are ints, hits are bools, and a discarded replicate's p0_hat is null
    fan = json.loads((tmp_path / "tiny_cifan.json").read_text())
    assert all(type(row["hit"]) is bool for row in fan)
    for row in rows:
        assert all(type(row[key]) is int for key in ("n", "kept", "discarded"))
        missing = sum(1 for f in fan if f["n"] == row["n"] and f["p0_hat"] is None)
        assert missing == row["discarded"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key in sorted(GOLDEN):
            print(f"    {key!r}: {run_digest(*key, Path(tmp))!r},")
