"""Declarative run configuration.

A run is described by one JSON document; CLI flags override individual
fields, and :func:`energyseg.pipeline.run_command` echoes the effective
configuration (``PipelineConfig.to_dict``) into the output directory as
config.json, so any artifact can be regenerated from its config alone.

Each stage module owns its one config type (``synthetic.GeneratorConfig``,
``features.FeatureConfig``, ``glasso.GlassoConfig``,
``clustering.ClusteringConfig``, ``causality.CausalityConfig``); this
module assembles them into :class:`PipelineConfig`. The segmentation stage
has no config: its rank bands and proportion buckets are fixed by the
method.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any

from .causality import CausalityConfig
from .clustering import ClusteringConfig
from .errors import InvalidConfig, require_int
from .features import FeatureConfig
from .glasso import GlassoConfig
from .synthetic import GeneratorConfig

OUTPUT_ROOT_ENV = "ENERGYSEG_OUTPUT_ROOT"


def _from_mapping(cls, data: dict[str, Any], context: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfig(f"unknown {context} option(s): {sorted(unknown)}")
    return cls(**data)


@dataclass
class PipelineConfig:
    input: str | None = None
    output_dir: str | None = None
    seed: int = 0
    synth: GeneratorConfig = field(default_factory=GeneratorConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    glasso: GlassoConfig = field(default_factory=GlassoConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    causality: CausalityConfig = field(default_factory=CausalityConfig)

    def __post_init__(self) -> None:
        require_int("seed", self.seed, 0)
        for name in ("input", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise InvalidConfig(f"{name} must be a string or null, got {value!r}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise InvalidConfig(f"config root must be an object, got {type(data).__name__}")
        data = dict(data)
        kwargs: dict[str, Any] = {}
        for section in fields(cls):
            name, section_cls = section.name, section.default_factory
            if section_cls is not MISSING and name in data:
                raw = data.pop(name)
                if not isinstance(raw, dict):
                    raise InvalidConfig(f"section {name!r} must be an object")
                try:
                    kwargs[name] = _from_mapping(section_cls, raw, name)
                except (TypeError, ValueError) as exc:
                    raise InvalidConfig(f"bad {name} section: {exc}") from None
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfig(f"unknown config option(s): {sorted(unknown)}")
        try:
            return cls(**data, **kwargs)
        except TypeError as exc:
            raise InvalidConfig(str(exc)) from None


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise InvalidConfig(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file is not valid JSON: {exc}") from None
    return PipelineConfig.from_dict(data)
