"""Recorded outputs of all four commands, one config per rung plan.

Each directory under ``fixtures/regression`` holds a config and the
``dominate.json``, ``rate.json``, ``verify_ladder.csv``,
``verify_summary.json`` and ``estimate.json`` it produced: exact block
rows (``exact-block``), importance-sampled rows on a halfspace
(``is-halfspace``) and on a 2-D polyhedron (``is-polyhedron``, which
also records the pairwise corner check), and crude rows only on a
mixture (``crude-mixture``, which also records the per-component
solutions).  Every config's crude
rows hit, so a change to the rung plan, to the row order or to which
substream feeds which estimator fails here.  Methods, block sizes,
seeds and every other string or integer must match exactly; floats to a
relative 1e-12, which allows a last-bit change in a formula but no
change of draws.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from gaussmax import cli

FIXTURES = Path(__file__).parent / "fixtures" / "regression"
CASES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())
RTOL = 1e-12


def _same(got, want, where="$"):
    """Assert two decoded artifacts agree: floats to RTOL, all else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    floats = ("speed", "p_hat", "std_error", "log_p_hat")
    return [{k: float(v) if k in floats else v for k, v in row.items()} for row in rows]


def test_three_plan_branches_are_recorded():
    assert CASES == ["crude-mixture", "exact-block", "is-halfspace", "is-polyhedron"]


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recording(case, tmp_path):
    recorded = FIXTURES / case
    config = str(recorded / "config.yaml")
    for command in ("dominate", "rate", "verify", "estimate"):
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 0
    got_header = (tmp_path / "verify_ladder.csv").read_text().splitlines()[0]
    assert got_header == (recorded / "verify_ladder.csv").read_text().splitlines()[0]
    _same(_csv_rows(tmp_path / "verify_ladder.csv"), _csv_rows(recorded / "verify_ladder.csv"))
    for name in ("dominate.json", "rate.json", "verify_summary.json", "estimate.json"):
        got = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        want = json.loads((recorded / name).read_text(encoding="utf-8"))
        _same(got, want, name)
