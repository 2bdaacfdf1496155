"""Golden outputs: `prevbias run` out-dirs match recorded sha256 digests.

Each digest covers the sorted file names of one out-dir and their bytes
(tables, per-replicate fan and manifest), so any change to the replicate
streams, the estimators, the intervals, the aggregation or the number
formatting shows up here.  The digests were recorded at version 0.2.0,
whose engine draws each grid position's replicates from one stream
``(seed, k)``.

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
    ("mcar", "csv"): "86959e1afe2a68e1d8a5c7123189e98321e25966b3d8d798e065296ef304d5ad",
    ("mar", "csv"): "90a5fd5794dc3b73a7cd6b2217686e0b040f6d0bb3f1d460febb3afebb1e7d16",
    ("mar", "json"): "acb661b2cb19bd146c0aecdce6d0467fb6d9a3728af649642c67adcee43fb6eb",
    ("mnar", "csv"): "52774b1d2b898fca9b2c04e366bcc477f0c31815781f7ba0a0f073a6cd202f62",
    ("coverage1", "csv"): "35676b05abc9781aaeb98b93f8fe67979f9e350f82a63f971a60896e179339b3",
    ("coverage2", "csv"): "d7134c434a83bb25ca811697cf15a22d6ab6c7cb6c1e436b90c80ea4511b95cb",
    ("tiny", "csv"): "1723c2e349d14af2dcbf445fa2f51f61a797f7d66e4afb92a186f82a16b0dd1a",
    ("tiny", "json"): "956e4107838f2f5daeeb69387b4f6b9c7753a9f0b923ee1d6a79d3339d43eeae",
    ("maxent3", "csv"): "0476c30bdfbbec1ed18cc71459f0a8b60cb00bbbc84d6cded11019a9144e9a05",
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
