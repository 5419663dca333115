"""Config parsing, CLI subcommands, artifact formats, and exit codes."""

import json
import math
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import gaussmax as gm
from gaussmax import cli, config as config_module
from gaussmax.config import load_config, parse_config

ROOT = Path(__file__).resolve().parent.parent
REPO_CONFIGS = sorted(ROOT.glob("tests/fixtures/regression/*/config.yaml")) + sorted(
    ROOT.glob("benchmarks/configs/*.yaml")
)


class PureSafeLoader(yaml.SafeLoader):
    """The pure-Python safe loader with the config loader's resolvers: the reference parse."""

    yaml_implicit_resolvers = config_module._Loader.yaml_implicit_resolvers

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


def count_generators(monkeypatch) -> list:
    """The streams whose generator is made, in call order, from now on."""
    calls = []
    generator = gm.RandomStream.generator

    def counting(stream):
        calls.append(stream)
        return generator(stream)

    monkeypatch.setattr(gm.RandomStream, "generator", counting)
    return calls


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


SIGMA = "sigma: [[1.0, 0.0], [0.0, 1.0]]"
MIXTURE_COMPONENTS = MIXTURE_YAML[MIXTURE_YAML.index("components:") : MIXTURE_YAML.index("\nset:")]
POLY_SET = (
    "kind: polyhedron\n  constraints: [[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]\n"
    "  offsets: [4.0, 3.0, 4.0]"
)
MIXTURE_BLOCK = "kind: block\n  corner: [2.0, 2.0]"
MIXTURE_HALFSPACE = "kind: halfspace\n  normal: [1.0, 1.0]\n  offset: 4.0"


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

    def test_integral_float_count_is_an_integer(self):
        config = parse_config(BLOCK_YAML.replace("trials: 2000", "trials: 2000.0"))
        assert config.trials == 2000
        assert isinstance(config.trials, int)

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

    def test_repo_configs_parse_as_under_pure_loader(self):
        # libyaml, where installed, parses; the pure loader is the reference.
        assert len(REPO_CONFIGS) == 8
        for path in REPO_CONFIGS:
            text = path.read_text(encoding="utf-8")
            got = yaml.load(text, Loader=config_module._Loader)
            assert repr(got) == repr(yaml.load(text, Loader=PureSafeLoader)), path

    def test_model_and_set_built_once(self, tmp_path, monkeypatch):
        built = []

        def counted(sigma):
            built.append(sigma)
            return gm.build_covariance(sigma)

        monkeypatch.setattr(config_module, "build_covariance", counted)
        config = load_config(ROOT / "tests/fixtures/regression/crude-mixture/config.yaml")
        cli.run_dominate(config, config.seed, tmp_path)
        cli.run_estimate(config, config.seed, tmp_path, False)
        cli.run_verify(config, config.seed, tmp_path, 1)
        assert len(built) == len(config.model["components"]) == 2
        assert config.build_model() is config.build_model()
        assert config.build_set() is config.build_set()
        other = replace(config, seed=config.seed + 1)
        assert other.build_model() is not config.build_model()
        assert other.build_set() is not config.build_set()
        assert len(built) == 4
        assert replace(other, seed=config.seed) == config

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

    @pytest.mark.parametrize(
        "base, old",
        [
            (POLY_YAML, POLY_SET),
            (POLY_YAML.replace("mean: [0.0, 0.0]", "mean: [0.5, -0.5]"), POLY_SET),
            (MIXTURE_YAML, MIXTURE_BLOCK),
        ],
        ids=["centred", "shifted", "mixture"],
    )
    def test_single_row_disables_corner_diagnostic(self, tmp_path, base, old):
        one_row = "kind: polyhedron\n  constraints: [[1.0, 1.0]]\n  offsets: [2.0]"
        cfg = write_config(tmp_path, base.replace(old, one_row))
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["corner_pairwise"] is None
        assert payload["corner_discrepancy"] is None
        assert (
            "pairwise corner unavailable: need at least two constraint rows" in payload["warnings"]
        )

    def test_margin_just_above_one_warns_near_one(self, tmp_path):
        # alpha = offset**2 / 2 = 1 + 5e-10: the margin passes, within 1e-9 of 1.
        offset = math.sqrt(2.0 * (1.0 + 5e-10))
        text = HALFSPACE_YAML.replace("normal: [1.0, 1.0]", "normal: [1.0, 0.0]")
        cfg = write_config(tmp_path, text.replace("offset: 2.4", f"offset: {offset!r}"))
        out = tmp_path / "artifacts"
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dominate.json").read_text())
        assert payload["margin_alpha"] == pytest.approx(1.0 + 5e-10, rel=0, abs=1e-15)
        assert payload["margin_pass"] is True
        assert cli.MARGIN_NEAR_ONE in payload["warnings"]
        assert cli.MARGIN_WARNING not in payload["warnings"]

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

    def test_block_row_meets_its_target_within_four_se_of_the_exact_value(self, tmp_path):
        # The README block config (the block-crude benchmark): at n = 10000
        # the cone of the corner's two faces hits every draw, so the row
        # stops at its first chunk, 1024 of its 4000 samples.
        cfg = write_config(tmp_path, BLOCK_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        row, record = payload["importance_sampled"], payload["importance_sampling"]
        assert record["target_met"] and record["active_rows"] == 2
        assert record["samples"] == row["trials"] == 1024
        assert not any("at its cap" in w for w in payload["warnings"])
        config = parse_config(BLOCK_YAML)
        model, target, _ = cli._solve(config)
        log_q = gm.exact_single_log(model, target, config.build_ladder().entries()[-1])
        assert payload["exact"]["log_q_single"] == log_q
        assert abs(math.expm1(row["log_p_hat"] - log_q)) <= 4.0 * row["std_error"] / row["p_hat"]

    def test_zero_shift_reduces_to_crude(self, tmp_path, monkeypatch):
        # The plain draw, the cone without rows, is both rows, so the driver
        # weighs it once; the rows equal the crude row a cone run draws on
        # the same stream.
        text = BLOCK_YAML.replace("ladder: [100, 1000, 10000]", "ladder: [2, 5]")
        cfg = write_config(tmp_path, text)
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "is")]) == 0
        shifted = json.loads((tmp_path / "is" / "estimate.json").read_text())
        calls = []
        driver = gm.estimate._importance_sample

        def counting(model, passes, *args, **kwargs):
            calls.append(len(passes))
            return driver(model, passes, *args, **kwargs)

        monkeypatch.setattr(gm.estimate, "_importance_sample", counting)
        out = tmp_path / "artifacts"
        assert (
            cli.main(["estimate", "--config", str(cfg), "--out", str(out), "--zero-shift"]) == 0
        )
        assert calls == [1]
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["zero_shift"] is True
        assert "shift" not in payload and "shift" not in shifted
        assert payload["importance_sampling"]["active_rows"] == 0
        assert shifted["importance_sampling"]["active_rows"] == 2
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

    def test_weights_that_are_not_finite_are_named(self, tmp_path):
        # A halfspace 1e160 out: each hit's log-weight, about -|A_n x*|**2 / 2,
        # overflows to -inf (numpy warns), so the row is degenerate.  The
        # halfspace is its own active cone, so every draw lands in it.
        text = HALFSPACE_YAML.replace("normal: [1.0, 1.0]", "normal: [1.0, 0.0]")
        text = text.replace("offset: 2.4", "offset: 1.0e+160")
        text = text.replace("is_samples: 5000", "is_samples: 100")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        with pytest.warns(RuntimeWarning):
            assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["degenerate_weights"] is True
        assert payload["importance_sampled"]["log_p_hat"] == "-inf"
        message = "importance sampler: log-weights of 100 hits are not finite (degenerate weights)"
        assert message in payload["warnings"]

    def test_underflowing_weights_keep_a_finite_log(self, tmp_path):
        # At n = 10000 the halfspace is x_1 >= 42.9, its own active cone:
        # every sample hits, and each weight is below exp(-900).  The weights
        # stay in log space, so the row resolves although p_hat underflows
        # to zero.
        text = HALFSPACE_YAML.replace("normal: [1.0, 1.0]", "normal: [1.0, 0.0]").replace(
            "offset: 2.4", "offset: 10.0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["degenerate_weights"] is False
        row = payload["importance_sampled"]
        assert row["p_hat"] == 0.0
        assert payload["exact"]["q_single"] == 0.0
        log_q = float(gm.estimate._log_ndtr(-10.0 * math.sqrt(2.0 * math.log(10000))))
        assert log_q < -900.0
        assert payload["exact"]["log_q_single"] == log_q
        # The row stops at its 0.005 relative SE target; 0.02 in log is 4 SE.
        assert payload["importance_sampling"]["target_met"]
        assert abs(row["log_p_hat"] - log_q) < 0.02
        assert payload["union_combined"]["log_p_hat"] == pytest.approx(
            row["log_p_hat"] + math.log(10000), rel=1e-12
        )
        assert not any("degenerate" in w for w in payload["warnings"])

    def test_one_draw_per_chunk(self, tmp_path, monkeypatch):
        # Both IS rows of estimate weigh the same draws: 5000 samples of
        # dimension 2 at 1000 scalars a chunk are 10 chunks, 10 draws, one
        # generator per chunk substream of the IS slot 800.  At n = 5 the
        # crude row expects about 6 hits, so it is weighed.
        monkeypatch.setattr(gm.estimate, "CHUNK_SCALARS", 1_000)
        calls = count_generators(monkeypatch)
        cfg = write_config(tmp_path, HALFSPACE_YAML.replace("[100, 1000, 10000]", "[2, 5]"))
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert calls == [gm.RandomStream(910).substream(800).substream(i) for i in range(10)]
        payload = json.loads((tmp_path / "a" / "estimate.json").read_text())
        assert payload["crude_single"]["trials"] == 5000
        assert "crude_skipped" not in payload

    # x_1 + x_2 >= 0.5 at n = 5: the set lies 0.63 whitened units from the
    # mean, so the crude draw lands in it about a quarter of the time.
    EASY_YAML = HALFSPACE_YAML.replace("offset: 2.4", "offset: 0.5").replace(
        "ladder: [100, 1000, 10000]", "ladder: [2, 5]"
    ).replace("is_samples: 5000", "is_samples: 200000")

    def test_rows_stop_at_their_target_before_the_cap(self, tmp_path, monkeypatch):
        # Chunks of 1024, 2048, 4096, then 8192 samples each: the cone row
        # meets its 0.005 relative SE after 5 chunks (23552 samples), the
        # crude row after 16 (113664), and the draw ends there, well before
        # the cap.
        calls = count_generators(monkeypatch)
        cfg = write_config(tmp_path, self.EASY_YAML)
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert calls == [gm.RandomStream(910).substream(800).substream(i) for i in range(16)]
        payload = json.loads((tmp_path / "a" / "estimate.json").read_text())
        record = payload["importance_sampling"]
        assert record["target_met"] and record["relative_se"] <= 0.005
        assert record["samples"] == payload["importance_sampled"]["trials"] == 23552
        assert payload["crude_single"]["trials"] == 113664
        assert not any("at its cap" in w for w in payload["warnings"])

    def test_row_is_its_cone_pass_on_its_slot(self, tmp_path):
        # At 20000 samples the row, short of its target, spans chunks of
        # 1024, 2048, 4096, 8192 and 4640.
        text = self.EASY_YAML.replace("is_samples: 200000", "is_samples: 20000")
        cfg = write_config(tmp_path, text)
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        payload = json.loads((tmp_path / "a" / "estimate.json").read_text())
        config = parse_config(text)
        model, target, solved = cli._solve(config)
        entry = config.build_ladder().entries()[-1]
        (alone,), (record,) = gm.is_cones(
            model, target, config.build_limit(), solved.x_star, [(entry, True)], 20000,
            gm.RandomStream(910).substream(800),
        )
        assert payload["importance_sampled"] == json.loads(json.dumps(cli._jsonable(asdict(alone))))
        assert record["active_rows"] == 1
        assert payload["importance_sampling"] == json.loads(json.dumps(cli._jsonable(record)))
        assert alone.trials == 20000 and not record["target_met"]

    def test_crude_row_that_cannot_hit_is_skipped(self, tmp_path, monkeypatch):
        # At n = 10000 the halfspace lies delta = 2.4 * sqrt(2 log n) / sqrt(2)
        # = 7.28 whitened units out: 5000 draws expect 8e-10 crude hits.
        from scipy.stats import norm

        cfg = write_config(tmp_path, HALFSPACE_YAML)
        shifts = []
        driver = gm.estimate._importance_sample

        def counting(model, passes, *args, **kwargs):
            shifts.append(len(passes))
            return driver(model, passes, *args, **kwargs)

        monkeypatch.setattr(gm.estimate, "_importance_sample", counting)
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        payload = json.loads((tmp_path / "a" / "estimate.json").read_text())
        assert shifts == [1]
        assert payload["crude_single"] is None
        assert payload["crude_resolved"] is False
        assert payload["variance_reduction_factor"] is None
        delta = 2.4 * math.sqrt(2.0 * math.log(10000)) / math.sqrt(2.0)
        assert payload["crude_skipped"] == {
            "n": 10000, "reason": "expected_hits",
            "expected_hits": pytest.approx(5000 * norm.sf(delta), rel=1e-12),
        }
        # The IS row is the one a cone and a plain pass give on the same stream.
        config = parse_config(HALFSPACE_YAML)
        model, target, solved = cli._solve(config)
        entry = config.build_ladder().entries()[-1]
        (both, _), _ = gm.is_cones(
            model, target, config.build_limit(), solved.x_star, [(entry, True), (entry, False)],
            5000, gm.RandomStream(910).substream(800),
        )
        row = payload["importance_sampled"]
        assert (row["p_hat"], row["std_error"]) == (both.p_hat, both.std_error)
        # --zero-shift weighs the zero shift as before.
        out = tmp_path / "z"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out), "--zero-shift"]) == 0
        zero = json.loads((out / "estimate.json").read_text())
        assert zero["crude_single"] == zero["importance_sampled"]
        assert "crude_skipped" not in zero

    def test_mixture_estimate_reports_crude_pair(self, tmp_path):
        cfg = write_config(tmp_path, MIXTURE_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["n"] == 20
        assert payload["crude_componentwise"]["method"] == "crude_componentwise"
        assert payload["crude_at_least_one"]["method"] == "crude_at_least_one"


class TestNonCentredGaussian:
    """Importance sampling centres its proposal at A_n x*, whatever the mean."""

    YAML = """\
model:
  kind: gaussian
  mean: [99.0]
  sigma: [[1.0]]
set:
  kind: halfspace
  normal: [1.0]
  offset: 100.0
limit: [1.0]
ladder: [2, 10]
trials: 1000
is_samples: 2000
seed: 3
"""

    @staticmethod
    def exact_log(n: int) -> tuple[float, float]:
        """Exact ``(log q, log P(at least one))`` at block size ``n``."""
        from scipy.stats import norm

        log_q = float(norm.logsf(100.0 * math.sqrt(2.0 * math.log(n)) - 99.0))
        # log(1 - (1 - q)^n) = log(n q) to a relative O(n q), and q is below 1e-70.
        return log_q, math.log(n) + log_q

    def test_estimate_and_verify_match_the_exact_log(self, tmp_path):
        cfg = write_config(tmp_path, self.YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        log_q10, log_p10 = self.exact_log(10)
        assert log_q10 == pytest.approx(-6686.96, abs=0.01)
        assert abs(payload["importance_sampled"]["log_p_hat"] - log_q10) < 0.5
        assert abs(payload["union_combined"]["log_p_hat"] - log_p10) < 0.5
        # The exact reference lies below double range, yet both rows are compared with it.
        assert payload["exact"]["q_single"] == 0.0
        assert payload["exact"]["log_q_single"] == pytest.approx(log_q10, rel=1e-12)
        assert payload["exact"]["log_p_at_least_one"] == pytest.approx(log_p10, rel=1e-12)
        relative = payload["relative_errors"]
        assert sorted(relative) == ["importance_sampled_vs_exact", "union_combined_vs_exact"]
        assert all(value < 0.65 for value in relative.values())
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "verify_ladder.csv").read_text().splitlines()[1:]]
        union = {int(r[0]): float(r[5]) for r in rows if r[2] == "union_combined"}
        assert abs(union[2] - self.exact_log(2)[1]) < 0.5


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

    def test_worker_count_does_not_change_crude_hits(self, tmp_path, monkeypatch):
        # A lowered corner makes the crude rows hit.  At n = 10000 the
        # exceedance pass draws about 1280 scalars a trial, so its 6300
        # trials span three sampling chunks that the workers share out.
        text = BLOCK_YAML.replace("corner: [1.2, 1.2]", "corner: [0.5, 0.5]").replace(
            "trials: 2000", "trials: 6300"
        )
        cfg = write_config(tmp_path, text)
        chunks = []
        draw = gm.estimate._draw_cells

        def counting(model, t, q, n, trials, rng):
            chunks.append(n)
            return draw(model, t, q, n, trials, rng)

        monkeypatch.setattr(gm.estimate, "_draw_cells", counting)
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
        assert chunks.count(10000) == 3 * 3
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
        # A halfspace keeps the full draw of n * trials * d scalars.
        text = MIXTURE_YAML.replace("ladder: [5, 20]", "ladder: [1000000, 10000000]").replace(
            "trials: 1000", "trials: 2000"
        ).replace(MIXTURE_BLOCK, MIXTURE_HALFSPACE)
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
        text = MIXTURE_YAML.replace("ladder: [5, 20]", "ladder: [5, 20, 1000000]").replace(
            MIXTURE_BLOCK, MIXTURE_HALFSPACE
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "verify_ladder.csv").read_text().splitlines()[1:]
        assert sorted({int(r.split(",")[0]) for r in rows}) == [5, 20]
        summary = json.loads((out / "verify_summary.json").read_text())
        # The scaled halfspace sits 5.1 and 6.9 standard deviations out at
        # n = 5 and 20, so no crude row hits and neither method gets a slope fit.
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


class TestVerifySharedDraw:
    """verify weighs every importance-sampled rung on one draw, each from its
    active cone, until the rung meets its stated precision."""

    @staticmethod
    def _is_only(monkeypatch):
        # No crude pass fits a zero budget, so every draw is the IS draw;
        # 5000 samples of dimension 2 at 1000 scalars a chunk are 10 chunks.
        monkeypatch.setattr(gm.estimate, "CRUDE_SCALAR_BUDGET", 0)
        monkeypatch.setattr(gm.estimate, "CHUNK_SCALARS", 1_000)

    # The cone of x_3 >= 2 A_n, one row, inside the faces x_1 >= -0.3 A_n
    # and x_2 >= -0.5 A_n.  Each pass integrates x_1's nearer face along its
    # chord, while x_2's still misses with probability Phi(-0.5 A_n), which
    # falls along the ladder.  In IS chunks of 250, 500, 1000, ... samples,
    # the n = 10 rung stops after 5 chunks (7750 samples), n = 100 after 4
    # and n = 1000 after 3, of 12 chunks to the cap.
    STAGGERED_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0, 0.0]
  sigma: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
set:
  kind: polyhedron
  constraints: [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
  offsets: [2.0, -0.3, -0.5]
limit: [1.0, 1.0, 1.0]
ladder: [10, 100, 1000]
trials: 500
is_samples: 64000
seed: 31
"""

    @staticmethod
    def _staggered(monkeypatch):
        monkeypatch.setattr(gm.estimate, "CRUDE_SCALAR_BUDGET", 0)
        monkeypatch.setattr(gm.estimate, "IS_FIRST_CHUNK", 250)

    def test_one_draw_per_chunk_not_per_rung(self, tmp_path, monkeypatch):
        # One generator per chunk substream of the shared IS slot 3, up to
        # the chunk at which the last rung stops: every draw of the
        # halfspace's cone hits, so each rung meets the target once it has
        # IS_MIN_HITS hits, at 1000 samples, 2 of the 10 chunks.
        self._is_only(monkeypatch)
        calls = count_generators(monkeypatch)
        cfg = write_config(tmp_path, HALFSPACE_YAML)
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert calls == [gm.RandomStream(910).substream(3).substream(i) for i in range(2)]
        rows = (tmp_path / "a" / "verify_ladder.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["union_combined"] * 3
        summary = json.loads((tmp_path / "a" / "verify_summary.json").read_text())
        records = summary["importance_sampling"]
        assert [(r["n"], r["samples"], r["hits"]) for r in records] == [
            (n, 1000, 1000) for n in (100, 1000, 10000)
        ]
        assert all(r["target_met"] and r["active_rows"] == 1 for r in records)

    def test_each_row_is_its_rung_alone_on_the_shared_stream(self, tmp_path, monkeypatch):
        # Each row and record is its rung's cone pass alone on the slot.
        self._staggered(monkeypatch)
        cfg = write_config(tmp_path, self.STAGGERED_YAML)
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        rows = (tmp_path / "a" / "verify_ladder.csv").read_text().splitlines()[1:]
        summary = json.loads((tmp_path / "a" / "verify_summary.json").read_text())
        records = summary["importance_sampling"]
        config = parse_config(self.STAGGERED_YAML)
        model, target, solved = cli._solve(config)
        entries, limit = config.build_ladder().entries(), config.build_limit()
        assert len(rows) == len(records) == len(entries)
        assert len({r["samples"] for r in records}) > 1
        for row, record, entry in zip(rows, records, entries):
            cone = gm.estimate._active_cone(model, target, limit, entry, solved.x_star)
            (q,), (alone,) = gm.is_cones(
                model, target, limit, solved.x_star, [(entry, True)], config.is_samples,
                gm.RandomStream(31).substream(3),
            )
            assert alone["active_rows"] == len(cone[1])
            assert record == {"n": entry.n, **alone}
            assert q.trials == record["samples"]
            lifted = gm.union_combined_report(q, entry.n, entry.speed)
            assert row == ",".join([
                str(entry.n), cli._g(entry.speed), "union_combined", cli._g(lifted.p_hat),
                cli._g(lifted.std_error), cli._g(lifted.log_p_hat), "31",
            ])

    def test_workers_do_not_change_a_multi_chunk_draw(self, tmp_path, monkeypatch):
        self._staggered(monkeypatch)
        cfg = write_config(tmp_path, self.STAGGERED_YAML)
        slot = gm.RandomStream(31).substream(3)
        outputs = []
        for workers in ("1", "2", "3"):
            calls = count_generators(monkeypatch)
            out = tmp_path / f"w{workers}"
            args = ["verify", "--config", str(cfg), "--out", str(out), "--workers", workers]
            assert cli.main(args) == 0
            # Chunks are drawn in order, and none after the last rung stops.
            assert calls == [slot.substream(i) for i in range(5)]
            summary = (out / "verify_summary.json").read_text().splitlines()
            kept = [line for line in summary if '"workers"' not in line]
            outputs.append(((out / "verify_ladder.csv").read_bytes(), kept))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        summary = json.loads((tmp_path / "w1" / "verify_summary.json").read_text())
        records = summary["importance_sampling"]
        assert [r["samples"] for r in records] == [7750, 3750, 1750]
        assert all(r["target_met"] and r["chord_row"] == 1 for r in records)

    def test_each_degenerate_rung_warns(self, tmp_path):
        # A slab 1e-12 wide: the cone of its near face, x_1 >= 2, puts the
        # draws in it with probability about 1e-11 a sample, so no rung's 500
        # samples hit.
        text = POLY_YAML.replace(
            "constraints: [[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]",
            "constraints: [[1.0, 0.0], [-1.0, 0.0]]",
        ).replace("offsets: [4.0, 3.0, 4.0]", "offsets: [2.0, -2.000000000001]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "verify_ladder.csv").read_text().splitlines()[1:]]
        assert [r[5] for r in rows if r[2] == "union_combined"] == ["-inf", "-inf"]
        summary = json.loads((out / "verify_summary.json").read_text())
        warnings = summary["warnings"]
        assert "importance sampler at n=10 produced no hits (degenerate weights)" in warnings
        assert "importance sampler at n=100 produced no hits (degenerate weights)" in warnings
        assert "union_combined: 0 of 2 rungs resolved, no slope fit" in warnings
        assert not any("at its cap" in w for w in warnings)
        records = summary["importance_sampling"]
        assert [(r["active_rows"], r["samples"], r["hits"]) for r in records] == [(1, 500, 0)] * 2
        assert all(r["relative_se"] == "inf" and not r["target_met"] for r in records)

    def test_a_row_at_its_cap_above_the_target_warns(self, tmp_path):
        # 500 samples cannot reach IS_MIN_HITS hits, so both rows stop at the cap.
        cfg = write_config(tmp_path, POLY_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        records = summary["importance_sampling"]
        assert [(r["n"], r["samples"], r["target_met"]) for r in records] == [
            (10, 500, False), (100, 500, False)
        ]
        for r in records:
            assert 0 < r["hits"] <= 500
            assert 0.0 < r["effective_sample_size"] <= r["hits"] * (1 + 1e-12)
            message = (
                f"importance sampler at n={r['n']}: relative SE {r['relative_se']:.3g} with"
                f" {r['hits']} hits at its cap of 500 samples (target 0.005 with 1000 hits)"
            )
            assert message in summary["warnings"]

    def test_mean_inside_a_scaled_set_is_a_plain_draw(self, tmp_path):
        # Under the limit (0.5, 1) the rung n = 2 scales the halfspace
        # x_1 >= 1 to x_1 >= 0.589, which holds the mean: no cone, weight 1.
        text = HALFSPACE_YAML.replace("mean: [0.0, 0.0]", "mean: [0.7, 0.0]").replace(
            "normal: [1.0, 1.0]\n  offset: 2.4", "normal: [1.0, 0.0]\n  offset: 1.0"
        ).replace("limit: [1.0, 1.0]", "limit: [0.5, 1.0]").replace(
            "ladder: [100, 1000, 10000]", "ladder: [2, 10, 100]"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        records = json.loads((out / "verify_summary.json").read_text())["importance_sampling"]
        assert [r["active_rows"] for r in records] == [0, 1, 1]
        plain = records[0]
        # Unit weights: every hit weighs 1, so the ESS is the hit count.
        assert plain["effective_sample_size"] == pytest.approx(plain["hits"], rel=1e-12)
        config = parse_config(text)
        model, target, _ = cli._solve(config)
        rows = [r.split(",") for r in (out / "verify_ladder.csv").read_text().splitlines()[1:]]
        lifted = [r for r in rows if r[2] == "union_combined"]
        for row, entry in zip(lifted, config.build_ladder().entries()):
            log_q = gm.exact_single_log(model, target, entry)
            log_p = gm.estimate._log_union_combine(log_q, entry.n)
            assert abs(math.expm1(float(row[5]) - log_p)) <= 4.0 * float(row[4]) / float(row[3])

    @pytest.mark.parametrize("sigmas", [28.0, 37.5])
    def test_log_space_weights_keep_a_standard_error(self, sigmas):
        # Each weight's square underflows here, and at 37.5 sigma the
        # probability itself is within a factor 10 of double underflow.
        model = gm.GaussianModel(np.zeros(1), gm.build_covariance([[1.0]]))
        target = gm.Halfspace(np.array([1.0]), sigmas)
        report = gm.is_single(model, target, np.array([sigmas]), 20_000, gm.RandomStream(5))
        assert not report.degenerate_weights
        assert report.std_error > 0.0
        log_q = float(gm.estimate._log_ndtr(-sigmas))
        assert abs(report.log_p_hat - log_q) <= 4.0 * report.std_error / report.p_hat


SMALL_BLOCK_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.5], [0.5, 1.0]]
set:
  kind: block
  corner: [1.0, 1.5]
limit: [1.0, 1.0]
ladder: [10, 100]
trials: 100
is_samples: 200
seed: 16
"""


SATURATING_YAML = """\
model: {kind: gaussian, mean: [0.95, 0.5], sigma: [[1.0, 0.0], [0.0, 1.0]]}
set: {kind: halfspace, normal: [1, 0], offset: 1.0}
limit: [1.0, 1.0]
ladder: [2, 3, 4]
trials: 100
is_samples: 1
seed: 6
"""


class TestSaturatedSingle:
    """A mean 0.05 from the set and off the axis of x* = (1, 0), and one
    sample, so q-hat, unbiased, can lie above the probability range.  The
    rung n = 2's cone is the halfspace 0.23 whitened units from the mean,
    with rate mu = 0.27: a draw near its face weighs up to 1.7, and the
    seeds here draw one that weighs more than 1 (8 of seeds 1-40 do in
    ``verify``, 7 of seeds 1-60 in ``estimate``, which draws on another
    substream)."""

    @pytest.mark.parametrize("seed", ["13", "15"])
    def test_verify_saturates_the_lifted_row(self, tmp_path, seed):
        cfg = write_config(tmp_path, SATURATING_YAML)
        out = tmp_path / "artifacts"
        assert cli.main(["verify", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "verify_ladder.csv").read_text().splitlines()[1:]]
        lifted = [r[3:6] for r in rows if r[0] == "2" and r[2] == "union_combined"]
        assert lifted == [["1", "0", "0"]]
        warnings = json.loads((out / "verify_summary.json").read_text())["warnings"]
        pattern = r"importance sampler at n=2: q_hat 1\.\d+ > 1, union_combined row saturated at 1"
        assert any(re.fullmatch(pattern, w) for w in warnings)

    def test_estimate_keeps_q_hat_and_saturates_the_lifted_row(self, tmp_path):
        cfg = write_config(tmp_path, SATURATING_YAML.replace("ladder: [2, 3, 4]", "ladder: [2]"))
        out = tmp_path / "artifacts"
        assert cli.main(["estimate", "--config", str(cfg), "--seed", "16", "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        single, lifted = payload["importance_sampled"], payload["union_combined"]
        assert single["p_hat"] > 1.0
        assert single["log_p_hat"] == pytest.approx(math.log(single["p_hat"]), rel=1e-12)
        assert (lifted["p_hat"], lifted["std_error"], lifted["log_p_hat"]) == (1.0, 0.0, 0.0)
        message = f"importance sampler at n=2: q_hat {single['p_hat']:.6g} > 1"
        assert f"{message}, union_combined row saturated at 1" in payload["warnings"]


class TestCertificateWarnings:
    def test_every_command_warns_on_failed_certificate(self, tmp_path, monkeypatch):
        # x* = (1, 1.5) is the corner; moved off it along e_1 by 1e-6 |x*|,
        # the point leaves the first face and the second alone cannot
        # balance the gradient.
        solve = gm.dominate._argmin

        def nudged(*args):
            x, steps = solve(*args)
            return x + 1e-6 * np.linalg.norm(x) * np.array([1.0, 0.0]), steps

        monkeypatch.setattr(gm.dominate, "_argmin", nudged)
        cfg = write_config(tmp_path, SMALL_BLOCK_YAML)
        out = tmp_path / "artifacts"
        for command in ("dominate", "rate", "estimate", "verify"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        dominate = json.loads((out / "dominate.json").read_text())
        assert dominate["optimality_certificate"] is False
        warning = f"x* fails its KKT certificate (kkt_residual {dominate['kkt_residual']:.3g})"
        assert warning == "x* fails its KKT certificate (kkt_residual 0.189)"
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
# (base, old, new, message): ``base`` with ``old`` replaced by ``new`` exits 2
# with ``message`` in its error.
INVALID_VALUES = [
    (MIXTURE_YAML, "weights: [0.3, 0.7]", "weights: [0.6, 0.6]", "weights sum to 1.2, expected 1"),
    (MIXTURE_YAML, "weights: [0.3, 0.7]", "weights: [-0.3, 1.3]", "weights must be nonnegative"),
    (
        BLOCK_YAML,
        "kind: block\n  corner: [1.2, 1.2]",
        "kind: ellipsoid\n  center: [3.0, 3.0]\n  shape: [[1.0, 0.0], [0.0, 1.0]]\n"
        "  radius: -0.7",
        "ellipsoid radius must be positive",
    ),
    (HALFSPACE_YAML, "normal: [1.0, 1.0]", "normal: [0, 0]", "halfspace normal must be nonzero"),
    (
        POLY_YAML,
        "constraints: [[2.0, 1.0], [1.0, 1.0],",
        "constraints: [[2.0, 1.0], [0.0, 0.0],",
        "constraint rows must be nonzero",
    ),
    (BLOCK_YAML, "limit: [1.0, 1.0]", "limit: [.inf, 1.0]", "limit.diagonal entry must be"),
    (BLOCK_YAML, "trials: 2000", "trials: .inf", "trials must be an integer, got inf"),
    (BLOCK_YAML, "trials: 2000", "trials: .nan", "trials must be an integer, got nan"),
    (BLOCK_YAML, "seed: 4242", "seed: .nan", "seed must be an integer, got nan"),
    (BLOCK_YAML, "ladder: [100, 1000, 10000]", "ladder: [100, .inf]", "ladder entry must be an"),
    (BLOCK_YAML, "corner: [1.2, 1.2]", "corner: [.nan, 1.2]", "set.corner entry must be a finite"),
    (BLOCK_YAML, "mean: [0.0, 0.0]", "mean: [.nan, 0.0]", "model.mean entry must be a finite"),
    (BLOCK_YAML, "seed: 4242", "seed: 4242\noutputs: null", "outputs must be a nonempty"),
    (BLOCK_YAML, "seed: 4242", 'seed: 4242\noutputs: ""', "outputs must be a nonempty"),
    (BLOCK_YAML, "corner: [1.2, 1.2]", 'corner: ["1e-3", 1.2]', "got '1e-3'"),
    (BLOCK_YAML, "kind: gaussian", "kind: [gaussian]", "model.kind must be 'gaussian' or"),
    (BLOCK_YAML, "kind: block", "kind: [block]", "set.kind must be one of"),
    (BLOCK_YAML, "corner: [1.2, 1.2]", "corner: 5", "set.corner must be a nonempty list"),
    (BLOCK_YAML, SIGMA, "sigma: 1.0", "model.sigma must be a nonempty list of rows"),
    (BLOCK_YAML, SIGMA, "sigma: [[1.0], [0.0, 1.0]]", "model.sigma rows must have equal"),
    (BLOCK_YAML, "trials: 2000", "trials: many", "trials must be an integer, got 'many'"),
    (MIXTURE_YAML, MIXTURE_COMPONENTS, "components: 3", "model.components must be a nonempty"),
    (MIXTURE_YAML, MIXTURE_COMPONENTS, "components: [1.0]", "component 1 must be a table"),
    (BLOCK_YAML, "set:\n  kind: block\n  corner: [1.2, 1.2]", "set: 3", "set must be a table"),
    (BLOCK_YAML, BLOCK_YAML, "[1, 2]", "config must be a YAML mapping"),
    (BLOCK_YAML, "limit: [1.0, 1.0]", "limit: [0.0, 1.0]", "limit.diagonal entries must be"),
    (BLOCK_YAML, "ladder: [100, 1000, 10000]", "ladder: 100", "ladder must be a nonempty list"),
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
        "base, old, new, message",
        INVALID_VALUES,
        ids=[case[2].splitlines()[-1].strip() for case in INVALID_VALUES],
    )
    def test_invalid_value_is_two(self, tmp_path, capsys, base, old, new, message):
        assert old in base
        cfg = write_config(tmp_path, base.replace(old, new))
        assert cli.main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

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
        MIXTURE_BLOCK,
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
