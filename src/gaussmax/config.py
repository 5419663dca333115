"""Experiment configuration: one YAML document describing a full run.

The document has top-level tables ``model``, ``set``, ``limit`` plus the
scalars ``ladder``, ``trials``, ``is_samples``, ``seed``, ``outputs``.
Parsing canonicalizes every number, normalizes the scaling diagonal so
its largest entry is exactly 1 (recording the factor), and validates
eagerly what can be checked without solving: positive definiteness,
dimension agreement, an atypical set, and model or mixture means outside
the set.  The margin condition depends on the dominating point and is checked
lazily by the runners, which downgrade it to a warning.  The digest of the
canonical form ties output artifacts to their inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from .dominate import ScalingLadder, ScalingLimit
from .errors import ConfigError
from .model import GaussianMixture, GaussianModel, build_covariance
from .sets import Block, ConvexSet, Ellipsoid, Halfspace, Polyhedron

__all__ = ["ExperimentConfig", "parse_config", "load_config"]

_TOP_KEYS = {"model", "set", "limit", "ladder", "trials", "is_samples", "seed", "outputs"}


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's where installed), also reading ``1e-3`` and ``1.2e10`` as floats.

    YAML 1.1 reads them as strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


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


def _reject_unknown(raw: dict, allowed, name: str) -> None:
    extra = set(raw) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {name} keys: {sorted(extra)}")


def _fields(raw: dict, schema: dict, prefix: str) -> dict:
    """Each field of ``schema`` read from ``raw`` by its parser, in schema order."""
    return {key: parse(raw.get(key), f"{prefix}{key}") for key, parse in schema.items()}


_GAUSSIAN = {"mean": _float_list, "sigma": _float_matrix}


def _components(value, name: str) -> list[dict]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{name} must be a nonempty list")
    comps = []
    for k, c in enumerate(value, start=1):
        if not isinstance(c, dict) or set(c) - set(_GAUSSIAN):
            raise ConfigError(f"component {k} must be a table with mean and sigma")
        comps.append(_fields(c, _GAUSSIAN, f"component {k} "))
    return comps


def _gaussian(spec: dict) -> GaussianModel:
    return GaussianModel(
        mean=np.array(spec["mean"]), covariance=build_covariance(np.array(spec["sigma"]))
    )


def _mixture(spec: dict) -> GaussianMixture:
    comps = tuple(_gaussian(c) for c in spec["components"])
    return GaussianMixture(weights=np.array(spec["weights"]), components=comps)


# Each kind's builder and fields, parsed in this order.  A set kind's fields
# are named as its class's constructor takes them.
_MODELS = {
    "gaussian": (_gaussian, _GAUSSIAN),
    "mixture": (_mixture, {"components": _components, "weights": _float_list}),
}
_SHAPES = {
    "block": (Block, {"corner": _float_list}),
    "halfspace": (Halfspace, {"normal": _float_list, "offset": _number}),
    "polyhedron": (Polyhedron, {"constraints": _float_matrix, "offsets": _float_list}),
    "ellipsoid": (Ellipsoid, {"center": _float_list, "shape": _float_matrix, "radius": _number}),
}


def _parse_kind(raw, name: str, table: dict, kinds: str) -> dict:
    """The ``{kind, fields...}`` spec of table ``name``, by the fields of its kind's row."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a table")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{name}.kind must be {kinds}, got {kind!r}")
    schema = table[kind][1]
    _reject_unknown(raw, {"kind", *schema}, name)
    return {"kind": kind, **_fields(raw, schema, f"{name}.")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Canonical, validated experiment description.

    The model and the set are built once per config, on first use; both
    are immutable, so every caller shares them.
    """

    model: dict
    set_spec: dict
    limit_diagonal: tuple
    normalization_factor: float
    ladder: tuple
    trials: int
    is_samples: int
    seed: int
    outputs: str

    @functools.cached_property
    def _model(self):
        return _MODELS[self.model["kind"]][0](self.model)

    @functools.cached_property
    def _set(self) -> ConvexSet:
        spec = self.set_spec
        cls, schema = _SHAPES[spec["kind"]]
        fields = {k: np.array(spec[k]) if isinstance(spec[k], list) else spec[k] for k in schema}
        return cls(**fields)

    def build_model(self):
        return self._model

    def build_set(self) -> ConvexSet:
        return self._set

    def build_limit(self) -> ScalingLimit:
        return ScalingLimit(np.array(self.limit_diagonal))

    def build_ladder(self) -> ScalingLadder:
        return ScalingLadder(limit=self.build_limit(), sample_sizes=self.ladder)

    def digest(self) -> str:
        canonical = {
            "model": self.model,
            "set": self.set_spec,
            "limit": {"diagonal": self.limit_diagonal},
            "normalization_factor": self.normalization_factor,
            "ladder": self.ladder,
            "trials": self.trials,
            "is_samples": self.is_samples,
            "seed": self.seed,
            "outputs": self.outputs,
        }
        text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment document.

    Raises ConfigError on any structural or validation failure; the
    message names the violated requirement.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a YAML mapping")
    _reject_unknown(raw, _TOP_KEYS, "config")
    for key in ("model", "set", "limit", "ladder", "trials", "is_samples", "seed"):
        if key not in raw:
            raise ConfigError(f"missing config key: {key}")

    model = _parse_kind(raw["model"], "model", _MODELS, "'gaussian' or 'mixture'")
    set_spec = _parse_kind(raw["set"], "set", _SHAPES, f"one of {sorted(_SHAPES)}")

    limit_raw = raw["limit"]
    if isinstance(limit_raw, dict):
        _reject_unknown(limit_raw, {"diagonal"}, "limit")
        limit_raw = limit_raw.get("diagonal")
    diag = _float_list(limit_raw, "limit.diagonal")
    if any(v <= 0.0 for v in diag):
        raise ConfigError("limit.diagonal entries must be positive")
    factor = max(diag)

    ladder_raw = raw["ladder"]
    if not isinstance(ladder_raw, (list, tuple)) or len(ladder_raw) == 0:
        raise ConfigError("ladder must be a nonempty list of block sizes")
    ladder = tuple(_int_value(n, "ladder entry", 2) for n in ladder_raw)

    outputs = raw.get("outputs", "out")
    if not isinstance(outputs, str) or not outputs:
        raise ConfigError(f"outputs must be a nonempty directory name, got {outputs!r}")

    config = ExperimentConfig(
        model=model,
        set_spec=set_spec,
        limit_diagonal=tuple(v / factor for v in diag),
        normalization_factor=factor,
        ladder=ladder,
        trials=_int_value(raw["trials"], "trials", 1),
        is_samples=_int_value(raw["is_samples"], "is_samples", 1),
        seed=check_seed(raw["seed"]),
        outputs=outputs,
    )

    # Build everything now so covariance, shape, weight and ladder-order
    # validation runs at parse time (the runners reuse the built model and
    # set); every validation failure is a ValueError.
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


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
