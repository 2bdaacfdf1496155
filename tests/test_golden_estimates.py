"""Golden replies: `prevbias estimate` on fixed count tables matches recorded
sha256 digests of its exit code, stdout and stderr.

The tables cover every mechanism branch: mcar at S = 2 and 3, mar with a
zero-share class, maxent with the closed-form shares of two classes and with
explicit bounds at S = 2 and 3, zero positives, alpha = 1 (zero-width
intervals) and alpha = 1e-20 (the quantile from the lower tail), and the
tables that exit 2 (an empty weighted class, an empty sample, the closed form
at three classes).  Any change to the share vector, the estimators, the
plug-in variances, the intervals or the number formatting shows up here.

To print the digests of the current tree instead of checking them:

    PYTHONPATH=src python tests/test_golden_estimates.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from prevbias.cli import main

MAR2 = {"type": "mar", "rho_s": ["0.8", "0.2"]}
TABLE = [[380, 20], [40, 60]]

TABLES = {
    "mcar_s2": {"N": 10_000, "counts": TABLE, "mechanism": {"type": "mcar"}},
    "mcar_s3": {"N": 5000, "counts": [[300, 12], [80, 30], [25, 41]], "mechanism": {"type": "mcar"}},
    "mcar_empty_class": {"N": 1000, "counts": [[100, 10], [0, 0]], "mechanism": {"type": "mcar"}},
    "mar_zero_share": {
        "N": 2000,
        "counts": [[150, 10], [30, 20], [4, 3]],
        "mechanism": {"type": "mar", "rho_s": ["0.7", "0.3", "0"]},
    },
    "maxent_closed_form": {"N": 1000, "counts": [[170, 30], [40, 60]], "mechanism": {"type": "maxent"}},
    "maxent_closed_form_zero_positives": {
        "N": 1000, "counts": [[100, 0], [50, 0]], "mechanism": {"type": "maxent"},
    },
    "maxent_bounded_s2": {
        "N": 10_000,
        "counts": TABLE,
        "mechanism": {"type": "maxent", "lower": [0.7, 0.1], "upper": [0.9, 0.3]},
    },
    "maxent_bounded_s3": {
        "N": 10_000,
        "counts": [[450, 50], [200, 100], [100, 100]],
        "mechanism": {"type": "maxent", "lower": [0.45, 0.15, 0.05], "upper": [0.65, 0.35, 0.25]},
    },
    "mar_zero_positives": {"N": 1000, "counts": [[100, 0], [50, 0]], "mechanism": MAR2},
    "mar_alpha_one": {"N": 10_000, "counts": TABLE, "mechanism": MAR2, "alpha": 1},
    "mar_alpha_1e-20": {"N": 10_000, "counts": TABLE, "mechanism": MAR2, "alpha": 1e-20},
    "mar_empty_weighted_class": {"N": 1000, "counts": [[100, 10], [0, 0]], "mechanism": MAR2},
    "maxent_closed_form_empty_sample": {
        "N": 1000, "counts": [[0, 0], [0, 0]], "mechanism": {"type": "maxent"},
    },
    "maxent_closed_form_empty_class": {
        "N": 1000, "counts": [[0, 0], [40, 60]], "mechanism": {"type": "maxent"},
    },
    "maxent_closed_form_s3": {
        "N": 1000, "counts": [[100, 10], [20, 5], [5, 5]], "mechanism": {"type": "maxent"},
    },
}

# Recorded before `Mechanism` became the one place that picks the share vector.
GOLDEN = {
    'mar_alpha_1e-20': '9c9b5e60a0c5176fcbe30cddf158fd329297379852ebb1332d380beb7148f5a1',
    'mar_alpha_one': '27b1ce3c79c855966ae6b1a758b4fd6c61663b22c5fb1ee8bbe27be5dc12f31a',
    'mar_empty_weighted_class': 'f3b5f52fbd510ec1eb7923bdb3cc0945112b10c17adbcad557fd3df888f3cbb5',
    'mar_zero_positives': 'd4cc21d65265c295381adf48c5e4e2bc52394933f8e2881852a9e25595017a25',
    'mar_zero_share': 'be3a82fe5374c970b09fbad7432bca1c46deca33924f347ebc12629ccfc773a5',
    'maxent_bounded_s2': '908242537e5ff7786c4b288a25e87ef57df3fcd897fe499c98396afcb17a6892',
    'maxent_bounded_s3': '083c193a442690e595ff2c7094a70904459582cf168f01bd87f9abc64b4147ad',
    'maxent_closed_form': 'fd2d006d8b6bbaa3171703cf096d6501294ccb60e32d0db00f394cb127c5859f',
    'maxent_closed_form_empty_class': '270b3a08dd2547842e1f748a2c7786569da6b34520f6d39281cc1868fa05a4aa',
    'maxent_closed_form_empty_sample': 'cc48a7c07b5d6a8103d634788273968f745757be94443ee0163427b401c93d3a',
    'maxent_closed_form_s3': 'b64494604ff17d960c4f29219f72ac0cda86ccf64c3628a8a3d491a6163dcee6',
    'maxent_closed_form_zero_positives': 'c2f321fa2ecaef8d58fbdc08902b70ceb6282db6955204d08482bc8279391f14',
    'mcar_empty_class': 'be2d2333fd0b4e5615959a3029268ba74317aefcbe25211e530438cbd22d8e1d',
    'mcar_s2': '3e8f55dd0906112025a14495e2149d563722069b73cb0b45b74b7475f95f0aa4',
    'mcar_s3': 'baadd1e00e078774ffa2ad8004f6187a44127d497c05e62b4c0efdb2c3e4b4b6',
}


def estimate_reply(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `prevbias estimate` on one table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(TABLES[name]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def reply_digest(name: str) -> str:
    code, stdout, stderr = estimate_reply(name)
    return hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_estimate_reply_matches_golden_digest(name):
    assert reply_digest(name) == GOLDEN[name]


def test_tables_reach_both_exit_codes():
    codes = {name: estimate_reply(name)[0] for name in TABLES}
    assert {name for name, code in codes.items() if code == 2} == {
        "mar_empty_weighted_class",
        "maxent_closed_form_empty_sample",
        "maxent_closed_form_empty_class",
        "maxent_closed_form_s3",
    }
    assert set(codes.values()) == {0, 2}


if __name__ == "__main__":
    for name in sorted(TABLES):
        print(f"    {name!r}: {reply_digest(name)!r},")
