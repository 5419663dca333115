"""Config parsing, CLI subcommands, artifact formats, and exit codes."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaussmax as gm
from gaussmax import cli
from gaussmax.config import parse_config

BLOCK_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.0], [0.0, 1.0]]
set:
  kind: block
  corner: [1.2, 1.2]
limit: [1.0, 1.0]
ladder: [100, 1000, 10000]
trials: 2000
is_samples: 4000
seed: 4242
"""

HALFSPACE_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.0], [0.0, 1.0]]
set:
  kind: halfspace
  normal: [1.0, 1.0]
  offset: 2.4
limit: [1.0, 1.0]
ladder: [100, 1000, 10000]
trials: 2000
is_samples: 5000
seed: 910
"""

POLY_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.0], [0.0, 1.0]]
set:
  kind: polyhedron
  constraints: [[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]
  offsets: [4.0, 3.0, 4.0]
limit: [1.0, 1.0]
ladder: [10, 100]
trials: 500
is_samples: 500
seed: 31
"""

MIXTURE_YAML = """\
model:
  kind: mixture
  weights: [0.3, 0.7]
  components:
    - mean: [-1.0, -1.0]
      sigma: [[1.0, 0.0], [0.0, 1.0]]
    - mean: [0.0, 0.0]
      sigma: [[1.0, 0.0], [0.0, 1.0]]
set:
  kind: block
  corner: [2.0, 2.0]
limit: [1.0, 1.0]
ladder: [5, 20]
trials: 1000
is_samples: 1000
seed: 77
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_block(self):
        config = parse_config(BLOCK_YAML)
        assert config.model["kind"] == "gaussian"
        assert config.set_spec == {"kind": "block", "corner": [1.2, 1.2]}
        assert config.limit_diagonal == (1.0, 1.0)
        assert config.normalization_factor == 1.0
        assert config.ladder == (100, 1000, 10000)
        assert config.trials == 2000
        assert config.seed == 4242
        assert config.outputs == "out"

    def test_limit_normalization(self):
        text = BLOCK_YAML.replace("limit: [1.0, 1.0]", "limit: [2.0, 1.0]")
        config = parse_config(text)
        assert config.limit_diagonal == (1.0, 0.5)
        assert config.normalization_factor == 2.0
        limit = config.build_limit()
        np.testing.assert_allclose(limit.diagonal, [1.0, 0.5])

    def test_limit_accepts_diagonal_table(self):
        text = BLOCK_YAML.replace("limit: [1.0, 1.0]", "limit:\n  diagonal: [1.0, 0.5]")
        config = parse_config(text)
        assert config.limit_diagonal == (1.0, 0.5)

    def test_exponent_floats_without_dot(self):
        # YAML 1.1 reads these as strings; a quoted "1e-3" stays one (see INVALID_VALUES).
        config = parse_config(BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [12e-1, 1.2e0]"))
        assert config.set_spec == {"kind": "block", "corner": [1.2, 1.2]}

    def test_digest_tracks_content(self):
        a = parse_config(BLOCK_YAML)
        b = parse_config(BLOCK_YAML.replace("seed: 4242", "seed: 4243"))
        assert a.digest() != b.digest()

    def test_unknown_top_key(self):
        with pytest.raises(gm.ConfigError, match="unknown config keys"):
            parse_config(BLOCK_YAML + "extra_key: 1\n")

    def test_missing_key(self):
        text = BLOCK_YAML.replace("trials: 2000\n", "")
        with pytest.raises(gm.ConfigError, match="missing config key: trials"):
            parse_config(text)

    def test_unknown_set_key(self):
        text = BLOCK_YAML.replace("  corner: [1.2, 1.2]", "  corner: [1.2, 1.2]\n  radius: 1.0")
        with pytest.raises(gm.ConfigError, match="unknown set keys"):
            parse_config(text)

    def test_invalid_yaml(self):
        with pytest.raises(gm.ConfigError, match="not valid YAML"):
            parse_config("model: [unclosed")

    def test_typical_set_message(self):
        text = BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [-1.0, -1.0]")
        with pytest.raises(gm.ConfigError, match="atypical set required"):
            parse_config(text)

    def test_mixture_mean_inside_message(self):
        text = MIXTURE_YAML.replace("- mean: [0.0, 0.0]", "- mean: [3.0, 3.0]")
        with pytest.raises(gm.ConfigError, match=r"mixture mean inside set \(component 2\)"):
            parse_config(text)

    def test_ladder_must_increase(self):
        text = BLOCK_YAML.replace("ladder: [100, 1000, 10000]", "ladder: [100, 100]")
        with pytest.raises(gm.ConfigError, match="strictly increasing"):
            parse_config(text)

    def test_dimension_mismatch(self):
        text = BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [1.2, 1.2, 1.2]")
        with pytest.raises(gm.ConfigError, match="dimension mismatch"):
            parse_config(text)

    def test_boolean_trials_rejected(self):
        text = BLOCK_YAML.replace("trials: 2000", "trials: true")
        with pytest.raises(gm.ConfigError):
            parse_config(text)

    def test_bad_covariance_reported_as_config_error(self):
        text = BLOCK_YAML.replace(
            "sigma: [[1.0, 0.0], [0.0, 1.0]]", "sigma: [[1.0, 2.0], [2.0, 1.0]]"
        )
        with pytest.raises(gm.ConfigError, match="config validation failed"):
            parse_config(text)


class TestDominateCommand:
    def test_block_payload(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        np.testing.assert_allclose(payload["x_star"], [1.2, 1.2], atol=1e-9)
        assert payload["quad_value"] == pytest.approx(2.88, abs=1e-9)
        assert payload["margin_alpha"] == pytest.approx(1.44, abs=1e-9)
        assert payload["margin_pass"] is True
        assert payload["rate_componentwise"] == pytest.approx(-0.94, abs=1e-9)
        assert payload["rate_single"] == pytest.approx(-1.44, abs=1e-9)
        assert payload["optimality_certificate"] is True
        assert payload["warnings"] == []
        assert payload["artifact_version"] == gm.__version__
        assert payload["seed"] == 4242
        assert len(payload["config_digest"]) == 64

    def test_polyhedron_corner_diagnostic(self, tmp_path):
        cfg = write_config(tmp_path, POLY_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        np.testing.assert_allclose(payload["x_star"], [1.5, 1.5], atol=1e-6)
        np.testing.assert_allclose(payload["corner_pairwise"], [1.0, 1.0], atol=1e-9)
        assert payload["corner_discrepancy"] == pytest.approx(math.sqrt(0.5), abs=1e-6)
        assert any("pairwise corner formula disagrees" in w for w in payload["warnings"])

    def test_far_polyhedron_corner_agrees(self, tmp_path):
        # Near x* ~ 1e10 the corner formula and the solver differ by about
        # 1.9e-6, a relative 1.6e-16, which is no disagreement.
        fixture = Path(__file__).parent / "fixtures" / "regression" / "is-polyhedron"
        text = (fixture / "config.yaml").read_text(encoding="utf-8")
        assert "offsets: [1.2, 1.1]" in text
        text = text.replace("offsets: [1.2, 1.1]", "offsets: [1.2e+10, 1.1e+10]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["corner_discrepancy"] > 1e-6
        assert payload["warnings"] == []

    def test_margin_warning_emitted(self, tmp_path):
        text = HALFSPACE_YAML.replace("offset: 2.4", "offset: 2.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["margin_alpha"] == pytest.approx(1.0, abs=1e-9)
        assert payload["margin_pass"] is False
        assert cli.MARGIN_WARNING in payload["warnings"]

    def test_parallel_rows_disable_corner_diagnostic(self, tmp_path):
        text = POLY_YAML.replace(
            "constraints: [[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]",
            "constraints: [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]",
        ).replace("offsets: [4.0, 3.0, 4.0]", "offsets: [2.0, 2.0, 1.0]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["corner_pairwise"] is None
        assert payload["corner_discrepancy"] is None
        assert any("pairwise corner unavailable" in w for w in payload["warnings"])

    def test_mixture_payload(self, tmp_path):
        cfg = write_config(tmp_path, MIXTURE_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["argmin_component"] == 2
        assert payload["rate_componentwise"] == pytest.approx(-3.5, abs=1e-8)
        quads = [c["quad_value"] for c in payload["per_component"]]
        assert quads[0] == pytest.approx(18.0, abs=1e-6)
        assert quads[1] == pytest.approx(8.0, abs=1e-8)
        np.testing.assert_allclose(payload["x_star"], [2.0, 2.0], atol=1e-8)


class TestRateCommand:
    def test_ladder_payload(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["rate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "rate.json").read_text())
        assert payload["speed_definition"] == "2*log(n)"
        assert [row["n"] for row in payload["ladder"]] == [100, 1000, 10000]
        for row in payload["ladder"]:
            assert row["speed"] == pytest.approx(2.0 * math.log(row["n"]), rel=1e-15)
        assert payload["rate_componentwise"] == pytest.approx(-0.94, abs=1e-9)


class TestEstimateCommand:
    def test_block_estimate_with_exact_reference(self, tmp_path):
        text = BLOCK_YAML.replace("ladder: [100, 1000, 10000]", "ladder: [2, 5]").replace(
            "is_samples: 4000", "is_samples: 40000"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["n"] == 5
        assert payload["zero_shift"] is False
        is_p = payload["importance_sampled"]["p_hat"]
        exact_q = payload["exact"]["q_single"]
        a5 = math.sqrt(2.0 * math.log(5.0))
        from scipy.stats import norm

        assert exact_q == pytest.approx(norm.sf(1.2 * a5) ** 2, rel=1e-12)
        assert payload["relative_errors"]["importance_sampled_vs_exact"] < 0.15
        assert abs(is_p - exact_q) < 0.15 * exact_q
        assert payload["exact"]["p_componentwise"] > 0.0
        assert payload["crude_resolved"] in (True, False)
        if payload["crude_resolved"]:
            assert payload["variance_reduction_factor"] > 1.0

    def test_zero_shift_reduces_to_crude(self, tmp_path, monkeypatch):
        # The zero shift is both rows, so the kernel weighs it once; the
        # rows equal the crude row a shifted run draws on the same stream.
        text = BLOCK_YAML.replace("ladder: [100, 1000, 10000]", "ladder: [2, 5]")
        cfg = write_config(tmp_path, text)
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "is")]) == 0
        shifted = json.loads((tmp_path / "is" / "estimate.json").read_text())
        calls = []
        kernel = cli._is_single_shifts

        def counting(model, target, shifts, *args, **kwargs):
            calls.append(len(shifts))
            return kernel(model, target, shifts, *args, **kwargs)

        monkeypatch.setattr(cli, "_is_single_shifts", counting)
        out = tmp_path / "artifacts"
        assert (
            cli.main(["estimate", "--config", str(cfg), "--out", str(out), "--zero-shift"]) == 0
        )
        assert calls == [1]
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["zero_shift"] is True
        assert payload["shift"] == [0.0, 0.0]
        assert payload["importance_sampled"] == payload["crude_single"] == shifted["crude_single"]

    def test_degenerate_weights_flagged(self, tmp_path):
        text = BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [9.0, 9.0]").replace(
            "is_samples: 4000", "is_samples: 200"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert (
            cli.main(["estimate", "--config", str(cfg), "--out", str(out), "--zero-shift"]) == 0
        )
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["degenerate_weights"] is True
        assert payload["importance_sampled"]["p_hat"] == 0.0
        assert payload["importance_sampled"]["log_p_hat"] == "-inf"
        assert any("degenerate" in w for w in payload["warnings"])

    def test_underflowing_weights_warn_on_their_own(self, tmp_path):
        # At n = 10000 the shift is (42.9, 0): about half the samples hit,
        # but each weight is below exp(-900) and underflows to zero.
        text = HALFSPACE_YAML.replace("normal: [1.0, 1.0]", "normal: [1.0, 0.0]").replace(
            "offset: 2.4", "offset: 10.0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["degenerate_weights"] is True
        assert payload["importance_sampled"]["p_hat"] == 0.0
        assert payload["exact"]["q_single"] == 0.0
        warning = next(w for w in payload["warnings"] if "degenerate" in w)
        assert "no hits" not in warning
        assert "summed to zero or overflowed" in warning

    def test_one_draw_per_chunk(self, tmp_path, monkeypatch):
        # Both IS rows of estimate weigh the same draws: 5000 samples of
        # dimension 2 at 1000 scalars a chunk are 10 chunks, 10 draws.
        monkeypatch.setattr(gm.estimate, "CHUNK_SCALARS", 1_000)
        calls = []
        draw = gm.estimate.sample_gaussian

        def counting(model, stream, out, z):
            calls.append(len(out))
            return draw(model, stream, out, z)

        monkeypatch.setattr(gm.estimate, "sample_gaussian", counting)
        cfg = write_config(tmp_path, HALFSPACE_YAML)
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert calls == [500] * 10

    def test_mixture_estimate_reports_crude_pair(self, tmp_path):
        cfg = write_config(tmp_path, MIXTURE_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["n"] == 20
        assert payload["crude_componentwise"]["method"] == "crude_componentwise"
        assert payload["crude_at_least_one"]["method"] == "crude_at_least_one"


class TestVerifyCommand:
    def test_exact_ladder_csv_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        csv_text = (out / "verify_ladder.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        # Every rung contributes exact componentwise and union rows; the two
        # crude estimators follow where the exact rows expect more than 0.01
        # hits in 2000 trials (0.36 at n = 100, 0.033 at n = 1000, 0.0034 at
        # n = 10000).
        methods_by_n = {}
        for row in rows:
            methods_by_n.setdefault(int(row[0]), []).append(row[2])
        exact = ["exact_block_diagonal", "union_combined"]
        crude = ["crude_componentwise", "crude_at_least_one"]
        assert methods_by_n == {100: exact + crude, 1000: exact + crude, 10000: exact}
        summary = json.loads((out / "verify_summary.json").read_text())
        assert [(s["n"], s["reason"]) for s in summary["crude_skipped"]] == [
            (10000, "expected_hits")
        ]
        assert summary["predicted_rate"] == pytest.approx(-0.94, abs=1e-9)
        fits = summary["slope_fits"]
        assert fits["exact_block_diagonal"]["r_squared"] > 0.99
        assert fits["union_combined"]["r_squared"] > 0.99
        assert "product_rate" in fits["exact_block_diagonal"]
        assert "product_rate" not in fits["union_combined"]
        gap = summary["equivalence_gap"]
        assert gap["gap_detected"] is True
        assert gap["max_log_ratio_over_log_n"] > 0.5
        assert any("differ on the log n scale" in w for w in summary["warnings"])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "verify_ladder.csv").read_bytes() == (
            out_b / "verify_ladder.csv"
        ).read_bytes()
        assert (out_a / "verify_summary.json").read_bytes() == (
            out_b / "verify_summary.json"
        ).read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, HALFSPACE_YAML)
        out_a = tmp_path / "w1"
        out_b = tmp_path / "w3"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert (
            cli.main(["verify", "--config", str(cfg), "--out", str(out_b), "--workers", "3"])
            == 0
        )
        assert (out_a / "verify_ladder.csv").read_bytes() == (
            out_b / "verify_ladder.csv"
        ).read_bytes()

    def test_worker_count_does_not_change_crude_hits(self, tmp_path):
        # A lowered corner makes the crude rows hit; at n = 10000 the 600
        # trials span three sampling chunks that the workers share out.
        text = BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [0.75, 0.75]").replace(
            "trials: 2000", "trials: 600"
        )
        cfg = write_config(tmp_path, text)
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            args = ["verify", "--config", str(cfg), "--out", str(out), "--workers", workers]
            assert cli.main(args) == 0
            summary = (out / "verify_summary.json").read_text().splitlines()
            kept = [line for line in summary if '"workers"' not in line]
            outputs.append(((out / "verify_ladder.csv").read_bytes(), kept))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        rows = [line.split(",") for line in outputs[0][0].decode().splitlines()[1:]]
        crude = [r for r in rows if r[2].startswith("crude_") and r[0] == "10000"]
        assert len(crude) == 2
        assert all(float(r[3]) > 0.0 for r in crude)

    def test_skipped_crude_pass_is_recorded_from_the_exact_row(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            args = ["verify", "--config", str(cfg), "--out", str(out), "--workers", workers]
            assert cli.main(args) == 0
            summary = (out / "verify_summary.json").read_text().splitlines()
            kept = [line for line in summary if '"workers"' not in line]
            outputs.append(((out / "verify_ladder.csv").read_bytes(), kept))
        assert outputs[1] == outputs[0]
        rows = [line.split(",") for line in outputs[0][0].decode().splitlines()[1:]]
        assert [r[2] for r in rows if r[0] == "10000"] == ["exact_block_diagonal", "union_combined"]
        log_cw = next(float(r[5]) for r in rows if r[0] == "10000" and r[2] == "exact_block_diagonal")
        summary = json.loads((tmp_path / "w1" / "verify_summary.json").read_text())
        assert summary["crude_skipped"] == [
            {"n": 10000, "reason": "expected_hits", "expected_hits": 2000 * math.exp(log_cw)}
        ]
        assert summary["crude_skipped"][0]["expected_hits"] == pytest.approx(3.4e-3, rel=0.02)

    def test_over_budget_gaussian_rung_is_recorded(self, tmp_path):
        text = HALFSPACE_YAML.replace("ladder: [100, 1000, 10000]", "ladder: [100, 1000, 100000]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "verify_ladder.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows if r[0] == "100000"] == ["union_combined"]
        assert len([r for r in rows if r[2].startswith("crude_")]) == 4
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["crude_skipped"] == [
            {"n": 100000, "reason": "scalar_budget", "scalars": 100000 * 2000 * 2}
        ]

    def test_halfspace_uses_importance_sampling_rows(self, tmp_path):
        cfg = write_config(tmp_path, HALFSPACE_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "verify_ladder.csv").read_text().strip().split("\n")[1:]
        methods = {line.split(",")[2] for line in lines}
        assert "union_combined" in methods
        assert "exact_block_diagonal" not in methods
        summary = json.loads((out / "verify_summary.json").read_text())
        assert "equivalence_gap" not in summary
        assert "crude_skipped" not in summary
        fit = summary["slope_fits"]["union_combined"]
        assert fit["r_squared"] > 0.95
        assert len(fit["points"]) == 3

    def test_equivalence_gap_reads_the_exact_rows(self, tmp_path):
        text = BLOCK_YAML.replace("trials: 2000", "trials: 50")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "verify_ladder.csv").read_text().splitlines()[1:]]
        exact = {}
        for n, _, method, _, _, log_p, _ in rows:
            if method in ("exact_block_diagonal", "union_combined"):
                exact.setdefault(int(n), []).append(float(log_p))
        gap = json.loads((out / "verify_summary.json").read_text())["equivalence_gap"]
        assert [e["n"] for e in gap["entries"]] == [100, 1000, 10000]
        for e in gap["entries"]:
            log_cw, log_alo = exact[e["n"]]
            assert e["log_ratio"] == log_cw - log_alo

    def test_mixture_over_budget_warns_per_rung(self, tmp_path):
        text = MIXTURE_YAML.replace("ladder: [5, 20]", "ladder: [1000000, 10000000]").replace(
            "trials: 1000", "trials: 2000"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "verify_ladder.csv").read_text() == cli.CSV_HEADER + "\n"
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["slope_fits"] == {}
        assert summary["warnings"] == [
            "ladder entry n=1000000 does not fit the crude sampling budget",
            "ladder entry n=10000000 does not fit the crude sampling budget",
        ]
        assert summary["crude_skipped"] == [
            {"n": n, "reason": "scalar_budget", "scalars": n * 2000 * 2} for n in (10**6, 10**7)
        ]
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["warnings"] == ["no ladder entry fits the crude sampling budget"]

    def test_mixture_partly_over_budget_uses_last_fitting_rung(self, tmp_path):
        text = MIXTURE_YAML.replace("ladder: [5, 20]", "ladder: [5, 20, 1000000]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "verify_ladder.csv").read_text().splitlines()[1:]
        assert sorted({int(r.split(",")[0]) for r in rows}) == [5, 20]
        summary = json.loads((out / "verify_summary.json").read_text())
        # The scaled corner sits 3.6 and 4.9 standard deviations out at n = 5
        # and 20, so no crude row hits and neither method gets a slope fit.
        assert summary["slope_fits"] == {}
        assert summary["warnings"] == [
            "ladder entry n=1000000 does not fit the crude sampling budget",
            "crude_componentwise: 0 of 2 rungs resolved, no slope fit",
            "crude_at_least_one: 0 of 2 rungs resolved, no slope fit",
        ]
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "estimate.json").read_text())["n"] == 20

    def test_single_rung_reports_insufficient_points(self, tmp_path):
        text = BLOCK_YAML.replace("ladder: [100, 1000, 10000]", "ladder: [100]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "verify_ladder.csv").exists()
        summary = json.loads((out / "verify_summary.json").read_text())
        assert "insufficient points" in summary["slope_fits"]["exact_block_diagonal"]["error"]

    def test_csv_floats_are_seventeen_digit(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "verify_ladder.csv").read_text().strip().split("\n")[1:]
        float_pattern = re.compile(r"^-?(\d+(\.\d+)?([eE][+-]?\d+)?|inf|nan)$")
        for line in lines:
            n, speed, method, p_hat, se, log_p, seed = line.split(",")
            assert n.isdigit()
            assert seed.isdigit()
            for field in (speed, p_hat, se, log_p):
                assert float_pattern.match(field), field
            # Round trip at 17 significant digits is exact for doubles.
            assert cli._g(float(speed)) == speed


NEAR_SINGULAR_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.999999999], [0.999999999, 1.0]]
set:
  kind: block
  corner: [1.0, 2.0]
limit: [1.0, 1.0]
ladder: [10, 100]
trials: 100
is_samples: 200
seed: 16
"""


class TestCertificateWarnings:
    def test_every_command_warns_on_failed_certificate(self, tmp_path):
        # At correlation c = 1 - 1e-9 the quadratic is so ill-conditioned
        # that x* = (2c, 2), right to an ulp, misses the 1e-9 KKT tolerance.
        cfg = write_config(tmp_path, NEAR_SINGULAR_YAML)
        out = tmp_path / "artifacts"
        for command in ("dominate", "rate", "estimate", "verify"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        dominate = json.loads((out / "dominate.json").read_text())
        assert dominate["optimality_certificate"] is False
        warning = f"x* fails its KKT certificate (kkt_residual {dominate['kkt_residual']:.3g})"
        assert warning == "x* fails its KKT certificate (kkt_residual 5.96e-08)"
        assert dominate["x_star"] == pytest.approx([2 * 0.999999999, 2.0], rel=1e-15, abs=0.0)
        for name in ("dominate.json", "rate.json", "estimate.json", "verify_summary.json"):
            assert warning in json.loads((out / name).read_text())["warnings"], name

    def test_mixture_components_are_named(self):
        good = SimpleNamespace(component=1, optimality_certificate=True, kkt_residual=1e-15)
        bad = SimpleNamespace(component=2, optimality_certificate=False, kkt_residual=3.25e-4)
        solved = SimpleNamespace(per_component=(good, bad), margin_alpha=4.0)
        assert cli._solve_warnings(solved) == [
            "component 2 x* fails its KKT certificate (kkt_residual 0.000325)"
        ]


# Non-finite numbers and invalid shapes or weights: (config, text, replacement).
INVALID_VALUES = [
    (MIXTURE_YAML, "weights: [0.3, 0.7]", "weights: [0.6, 0.6]"),
    (MIXTURE_YAML, "weights: [0.3, 0.7]", "weights: [-0.3, 1.3]"),
    (
        BLOCK_YAML,
        "kind: block\n  corner: [1.2, 1.2]",
        "kind: ellipsoid\n  center: [3.0, 3.0]\n  shape: [[1.0, 0.0], [0.0, 1.0]]\n"
        "  radius: -0.7",
    ),
    (HALFSPACE_YAML, "normal: [1.0, 1.0]", "normal: [0, 0]"),
    (POLY_YAML, "constraints: [[2.0, 1.0], [1.0, 1.0],", "constraints: [[2.0, 1.0], [0.0, 0.0],"),
    (BLOCK_YAML, "limit: [1.0, 1.0]", "limit: [.inf, 1.0]"),
    (BLOCK_YAML, "trials: 2000", "trials: .inf"),
    (BLOCK_YAML, "trials: 2000", "trials: .nan"),
    (BLOCK_YAML, "seed: 4242", "seed: .nan"),
    (BLOCK_YAML, "ladder: [100, 1000, 10000]", "ladder: [100, .inf]"),
    (BLOCK_YAML, "corner: [1.2, 1.2]", "corner: [.nan, 1.2]"),
    (BLOCK_YAML, "mean: [0.0, 0.0]", "mean: [.nan, 0.0]"),
    (BLOCK_YAML, "seed: 4242", "seed: 4242\noutputs: null"),
    (BLOCK_YAML, "seed: 4242", 'seed: 4242\noutputs: ""'),
    (BLOCK_YAML, "corner: [1.2, 1.2]", 'corner: ["1e-3", 1.2]'),
    (BLOCK_YAML, "kind: gaussian", "kind: [gaussian]"),
    (BLOCK_YAML, "kind: block", "kind: [block]"),
]


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        text = BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [-1.0, -1.0]")
        cfg = write_config(tmp_path, text)
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "atypical set required" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["3", "4"])
    def test_gaussian_mean_inside_set_is_two(self, tmp_path, capsys, seed):
        # Not a rare event: on these seeds an IS q-hat exceeds 1, which
        # used to crash the union_combined row with a ValueError.
        text = BLOCK_YAML.replace("mean: [0.0, 0.0]", "mean: [3.0, 3.0]")
        text = text.replace("corner: [1.2, 1.2]", "corner: [0.5, 0.5]")
        text = text.replace("ladder: [100, 1000, 10000]", "ladder: [2, 3, 4]")
        text = text.replace("trials: 2000", "trials: 200")
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["verify", "--config", str(cfg), "--seed", seed, "--out", out]) == 2
        assert "model mean inside set" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, old, new", INVALID_VALUES, ids=[case[2].splitlines()[-1].strip() for case in INVALID_VALUES]
    )
    def test_invalid_value_is_two(self, tmp_path, capsys, base, old, new):
        assert old in base
        cfg = write_config(tmp_path, base.replace(old, new))
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_key_is_two(self, tmp_path, capsys):
        for extra in ("bogus: 1\n", "normalization_factor: 2.0\n"):
            cfg = write_config(tmp_path, BLOCK_YAML + extra)
            assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert "unknown config keys" in capsys.readouterr().err

    def test_solver_failure_is_three(self, tmp_path, capsys):
        # An empty polyhedron passes the atypicality check (the origin is
        # outside) but the least-distance solve proves it empty.
        text = """\
model:
  kind: gaussian
  mean: [0.0]
  sigma: [[1.0]]
set:
  kind: polyhedron
  constraints: [[1.0], [-1.0]]
  offsets: [1.0, 1.0]
limit: [1.0]
ladder: [10, 100]
trials: 100
is_samples: 100
seed: 3
"""
        cfg = write_config(tmp_path, text)
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_failed_least_squares_svd_is_three(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        cfg = write_config(tmp_path, POLY_YAML)
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "solver error" in err and "SVD did not converge" in err

    def test_origin_on_boundary_to_rounding_is_three(self, tmp_path, capsys):
        # The origin is outside by 1e-15, so the config validates, but the
        # solve finds it on the boundary to working precision.
        text = HALFSPACE_YAML.replace("normal: [1.0, 1.0]", "normal: [1.0, 0.0]").replace(
            "offset: 2.4", "offset: 1.0e-15"
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "boundary to working precision" in capsys.readouterr().err

    def test_missing_config_is_four(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        assert cli.main(["dominate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 4

    def test_output_collision_is_four(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied", encoding="utf-8")
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(blocker)]) == 4
        assert blocker.read_text(encoding="utf-8") == "occupied"

    def test_bad_worker_count_is_two(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        assert (
            cli.main(
                ["verify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "0"]
            )
            == 2
        )

    def test_seed_override_changes_envelope(self, tmp_path):
        cfg = write_config(tmp_path, BLOCK_YAML)
        out = tmp_path / "artifacts"
        assert (
            cli.main(["dominate", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
        )
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["seed"] == 99
        # The digest pins the config document, not the override.
        assert payload["config_digest"] == parse_config(BLOCK_YAML).digest()


class TestSeedRange:
    """A seed is one Philox key word: ``0 <= seed < 2**64``, from a flag or a config."""

    @pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 1])
    def test_out_of_range_is_two(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, HALFSPACE_YAML)
        out = str(tmp_path / "flag")
        assert cli.main(["estimate", "--config", str(cfg), "--out", out, "--seed", str(seed)]) == 2
        flag_error = capsys.readouterr().err
        text = HALFSPACE_YAML.replace("seed: 910", f"seed: {seed}")
        cfg = write_config(tmp_path, text, "seeded.yaml")
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 2
        assert capsys.readouterr().err == flag_error
        assert flag_error.startswith("config error: seed must be")

    def test_largest_seed_runs_the_same_either_way(self, tmp_path):
        seed = 2**64 - 1
        cfg = write_config(tmp_path, HALFSPACE_YAML)
        flag_out = tmp_path / "flag"
        assert cli.main(
            ["estimate", "--config", str(cfg), "--out", str(flag_out), "--seed", str(seed)]
        ) == 0
        text = HALFSPACE_YAML.replace("seed: 910", f"seed: {seed}")
        cfg = write_config(tmp_path, text, "seeded.yaml")
        cfg_out = tmp_path / "cfg"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(cfg_out)]) == 0
        by_flag = json.loads((flag_out / "estimate.json").read_text())
        by_config = json.loads((cfg_out / "estimate.json").read_text())
        assert by_flag["seed"] == by_config["seed"] == seed
        del by_flag["config_digest"], by_config["config_digest"]
        assert by_flag == by_config


def test_import_does_not_load_scipy_optimize():
    # A fresh interpreter, since the test suite itself imports scipy.optimize.
    src = str(Path(gm.__file__).resolve().parents[1])
    code = "import gaussmax, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src, timeout=120)


def test_commands_do_not_load_scipy(tmp_path):
    # numpy and the standard library cover every command's linear algebra
    # and Gaussian tails, and the optimality check, so none of them needs
    # scipy: the fresh interpreter below cannot import it at all.
    ellipsoid = MIXTURE_YAML.replace(
        "kind: block\n  corner: [2.0, 2.0]",
        "kind: ellipsoid\n  center: [2.0, 2.2]\n  shape: [[1.0, 0.25], [0.25, 0.8]]\n  radius: 0.7",
    )
    assert "ellipsoid" in ellipsoid
    configs = [
        write_config(tmp_path, text, f"{name}.yaml")
        for name, text in [
            ("block", BLOCK_YAML), ("halfspace", HALFSPACE_YAML),
            ("polyhedron", POLY_YAML), ("mixture", ellipsoid),
        ]
    ]
    runs = [
        [command, "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]
        for cfg in configs
        for command in ("dominate", "rate", "estimate", "verify")
    ]
    src = str(Path(gm.__file__).resolve().parents[1])
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import gaussmax as gm
from gaussmax import cli
assert all(cli.main(argv) == 0 for argv in {runs!r})
cov = gm.build_covariance(np.array([[1.0, 0.5], [0.5, 1.0]]))
limit = gm.ScalingLimit.identity(2)
for target in (
    gm.Polyhedron([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]], [4.0, 3.0, 4.0]),
    gm.Ellipsoid([2.0, 2.2], [[1.0, 0.25], [0.25, 0.8]], 0.7),
):
    assert gm.verify_optimality(gm.dominating_point(target, cov, limit), target, cov, limit)
"""
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src, timeout=300)
    for cfg in configs:
        assert (tmp_path / cfg.stem / "verify_summary.json").exists()


def test_polyhedron_commands_do_not_load_scipy_optimize(tmp_path):
    # dominate and verify on a polyhedron solve their programs with numpy alone.
    src = str(Path(gm.__file__).resolve().parents[1])
    code = (
        "import sys; from pathlib import Path; from gaussmax import cli; "
        "from gaussmax.config import parse_config; "
        f"config = parse_config({POLY_YAML!r}); out = Path({str(tmp_path)!r}); "
        "cli.run_dominate(config, 31, out / 'dominate'); "
        "cli.run_verify(config, 31, out / 'verify', 1); "
        "assert 'scipy.optimize' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src, timeout=300)
    assert (tmp_path / "verify" / "verify_summary.json").exists()
