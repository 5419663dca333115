"""Experiment configuration: one YAML document describing a full run.

The document has top-level tables ``model``, ``set``, ``limit`` plus the
scalars ``ladder``, ``trials``, ``is_samples``, ``seed``, ``outputs``.
Parsing canonicalizes every number, normalizes the scaling diagonal so
its largest entry is exactly 1 (recording the factor), and validates
eagerly what can be checked without solving: positive definiteness,
dimension agreement, an atypical set, and model or mixture means outside
the set.  The margin condition depends on the dominating point and is checked
lazily by the runners, which downgrade it to a warning.

``parse_config(serialize_config(cfg))`` reproduces ``cfg`` exactly;
the digest of the canonical form ties output artifacts to their inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .dominate import ScalingLadder, ScalingLimit
from .errors import ConfigError
from .model import GaussianMixture, GaussianModel, build_covariance
from .sets import Block, ConvexSet, Ellipsoid, Halfspace, Polyhedron

__all__ = ["ExperimentConfig", "parse_config", "serialize_config", "load_config"]

_TOP_KEYS = {
    "model", "set", "limit", "ladder", "trials", "is_samples",
    "seed", "outputs", "normalization_factor",
}


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _float_list(value, name: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return [_number(v, f"{name} entry") for v in value]


def _float_matrix(value, name: str) -> list[list[float]]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{name} must be a nonempty list of rows")
    rows = [_float_list(row, f"{name} row") for row in value]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{name} rows must have equal length")
    return rows


def _int_value(value, name: str, minimum: int) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_seed(value) -> int:
    """A run seed: an integer in ``[0, 2**64)``, the width of a Philox key word.

    Streams key on the seed's low 64 bits, so a wider seed would replay
    another seed's draws while the artifacts record a different one.
    """
    seed = _int_value(value, "seed", 0)
    if seed >= 2**64:
        raise ConfigError(f"seed must be < 2**64, got {seed}")
    return seed


def _parse_model(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("model must be a table")
    kind = raw.get("kind")
    if kind == "gaussian":
        extra = set(raw) - {"kind", "mean", "sigma"}
        if extra:
            raise ConfigError(f"unknown model keys: {sorted(extra)}")
        return {
            "kind": "gaussian",
            "mean": _float_list(raw.get("mean"), "model.mean"),
            "sigma": _float_matrix(raw.get("sigma"), "model.sigma"),
        }
    if kind == "mixture":
        extra = set(raw) - {"kind", "weights", "components"}
        if extra:
            raise ConfigError(f"unknown model keys: {sorted(extra)}")
        comps_raw = raw.get("components")
        if not isinstance(comps_raw, (list, tuple)) or len(comps_raw) == 0:
            raise ConfigError("model.components must be a nonempty list")
        comps = []
        for k, c in enumerate(comps_raw):
            if not isinstance(c, dict) or set(c) - {"mean", "sigma"}:
                raise ConfigError(f"component {k + 1} must be a table with mean and sigma")
            comps.append({
                "mean": _float_list(c.get("mean"), f"component {k + 1} mean"),
                "sigma": _float_matrix(c.get("sigma"), f"component {k + 1} sigma"),
            })
        return {
            "kind": "mixture",
            "weights": _float_list(raw.get("weights"), "model.weights"),
            "components": comps,
        }
    raise ConfigError(f"model.kind must be 'gaussian' or 'mixture', got {kind!r}")


def _parse_set(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("set must be a table")
    kind = raw.get("kind")
    schemas = {
        "block": {"corner"},
        "halfspace": {"normal", "offset"},
        "polyhedron": {"constraints", "offsets"},
        "ellipsoid": {"center", "shape", "radius"},
    }
    if kind not in schemas:
        raise ConfigError(
            f"set.kind must be one of {sorted(schemas)}, got {kind!r}"
        )
    extra = set(raw) - schemas[kind] - {"kind"}
    if extra:
        raise ConfigError(f"unknown set keys: {sorted(extra)}")
    if kind == "block":
        return {"kind": kind, "corner": _float_list(raw.get("corner"), "set.corner")}
    if kind == "halfspace":
        return {
            "kind": kind,
            "normal": _float_list(raw.get("normal"), "set.normal"),
            "offset": _number(raw.get("offset"), "set.offset"),
        }
    if kind == "polyhedron":
        return {
            "kind": kind,
            "constraints": _float_matrix(raw.get("constraints"), "set.constraints"),
            "offsets": _float_list(raw.get("offsets"), "set.offsets"),
        }
    return {
        "kind": kind,
        "center": _float_list(raw.get("center"), "set.center"),
        "shape": _float_matrix(raw.get("shape"), "set.shape"),
        "radius": _number(raw.get("radius"), "set.radius"),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Canonical, validated experiment description."""

    model: dict
    set_spec: dict
    limit_diagonal: tuple
    normalization_factor: float
    ladder: tuple
    trials: int
    is_samples: int
    seed: int
    outputs: str

    def build_model(self):
        if self.model["kind"] == "gaussian":
            return GaussianModel(
                mean=np.array(self.model["mean"]),
                covariance=build_covariance(np.array(self.model["sigma"])),
            )
        comps = tuple(
            GaussianModel(
                mean=np.array(c["mean"]),
                covariance=build_covariance(np.array(c["sigma"])),
            )
            for c in self.model["components"]
        )
        return GaussianMixture(weights=np.array(self.model["weights"]), components=comps)

    def build_set(self) -> ConvexSet:
        s = self.set_spec
        if s["kind"] == "block":
            return Block(np.array(s["corner"]))
        if s["kind"] == "halfspace":
            return Halfspace(np.array(s["normal"]), s["offset"])
        if s["kind"] == "polyhedron":
            return Polyhedron(np.array(s["constraints"]), np.array(s["offsets"]))
        return Ellipsoid(np.array(s["center"]), np.array(s["shape"]), s["radius"])

    def build_limit(self) -> ScalingLimit:
        return ScalingLimit(np.array(self.limit_diagonal))

    def build_ladder(self) -> ScalingLadder:
        return ScalingLadder(limit=self.build_limit(), sample_sizes=self.ladder)

    def to_dict(self) -> dict:
        return {
            "model": json.loads(json.dumps(self.model)),
            "set": json.loads(json.dumps(self.set_spec)),
            "limit": {"diagonal": list(self.limit_diagonal)},
            "normalization_factor": self.normalization_factor,
            "ladder": list(self.ladder),
            "trials": self.trials,
            "is_samples": self.is_samples,
            "seed": self.seed,
            "outputs": self.outputs,
        }

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment document.

    Raises ConfigError on any structural or validation failure; the
    message names the violated requirement.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a YAML mapping")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "set", "limit", "ladder", "trials", "is_samples", "seed"):
        if key not in raw:
            raise ConfigError(f"missing config key: {key}")

    model = _parse_model(raw["model"])
    set_spec = _parse_set(raw["set"])

    limit_raw = raw["limit"]
    if isinstance(limit_raw, dict):
        extra = set(limit_raw) - {"diagonal"}
        if extra:
            raise ConfigError(f"unknown limit keys: {sorted(extra)}")
        limit_raw = limit_raw.get("diagonal")
    diag = _float_list(limit_raw, "limit.diagonal")
    if any(v <= 0.0 for v in diag):
        raise ConfigError("limit.diagonal entries must be positive")
    factor = max(diag)
    diag = [v / factor for v in diag]
    incoming = _number(raw.get("normalization_factor", 1.0), "normalization_factor")
    normalization_factor = incoming * factor

    ladder_raw = raw["ladder"]
    if not isinstance(ladder_raw, (list, tuple)) or len(ladder_raw) == 0:
        raise ConfigError("ladder must be a nonempty list of block sizes")
    ladder = tuple(_int_value(n, "ladder entry", 2) for n in ladder_raw)
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder block sizes must be strictly increasing")

    config = ExperimentConfig(
        model=model,
        set_spec=set_spec,
        limit_diagonal=tuple(diag),
        normalization_factor=normalization_factor,
        ladder=ladder,
        trials=_int_value(raw["trials"], "trials", 1),
        is_samples=_int_value(raw["is_samples"], "is_samples", 1),
        seed=check_seed(raw["seed"]),
        outputs=str(raw.get("outputs", "out")),
    )

    # Build everything once so covariance, shape and weight validation runs now;
    # every validation failure is a ValueError.
    try:
        built_model = config.build_model()
        built_set = config.build_set()
        config.build_ladder()
    except ValueError as exc:
        raise ConfigError(f"config validation failed: {exc}") from None

    dims = {built_model.dimension, built_set.dimension, len(config.limit_diagonal)}
    if len(dims) != 1:
        raise ConfigError(
            f"dimension mismatch between model, set and limit: {sorted(dims)}"
        )
    if not built_set.is_atypical():
        raise ConfigError(
            "config validation failed: atypical set required (the origin lies inside the target set)"
        )
    if isinstance(built_model, GaussianMixture):
        for j, comp in enumerate(built_model.components, start=1):
            if built_set.contains(comp.mean):
                raise ConfigError(
                    f"config validation failed: mixture mean inside set (component {j})"
                )
    elif built_set.contains(built_model.mean):
        # Not a rare event: an importance-sampled q-hat can exceed 1.
        raise ConfigError("config validation failed: model mean inside set")
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Render the canonical YAML document for a config."""
    return yaml.safe_dump(config.to_dict(), sort_keys=True, default_flow_style=False)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
