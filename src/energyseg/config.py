"""Declarative run configuration.

A run is described by one JSON document; CLI flags override individual
fields, and :func:`energyseg.pipeline.run_command` echoes the effective
configuration (``PipelineConfig.to_dict``) into the output directory as
config.json, so any artifact can be regenerated from its config alone.

Each stage module owns its one config type (``synthetic.GeneratorConfig``,
``glasso.GlassoConfig``, ``clustering.ClusteringConfig``); this module
assembles them, plus the feature, segmentation and causality sections, into
:class:`PipelineConfig`.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any

from .clustering import ClusteringConfig
from .errors import InvalidConfig, require_bool, require_int, require_number
from .features import (
    ALL_FEATURES,
    DEFAULT_CLUSTERING_FEATURES,
    DEFAULT_GRAPH_FEATURES,
    MINUTE_FEATURES,
)
from .glasso import GlassoConfig
from .synthetic import GeneratorConfig

OUTPUT_ROOT_ENV = "ENERGYSEG_OUTPUT_ROOT"

DEFAULT_CAUSALITY_PAIRS: tuple[tuple[str, str], ...] = (
    ("status_fan", "status_ceiling_light"),
    ("humidity", "status_fan"),
    ("status_desk_light", "status_fan"),
    ("status_ceiling_light", "status_desk_light"),
    ("is_morning", "status_desk_light"),
    ("is_afternoon", "status_fan"),
    ("is_evening", "status_ceiling_light"),
)


def _from_mapping(cls, data: dict[str, Any], context: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfig(f"unknown {context} option(s): {sorted(unknown)}")
    return cls(**data)


@dataclass
class FeatureConfig:
    clustering_features: tuple[str, ...] = DEFAULT_CLUSTERING_FEATURES
    graph_features: tuple[str, ...] = DEFAULT_GRAPH_FEATURES
    clustering_granularity: str = "daily"
    graph_granularity: str = "minute"

    def __post_init__(self) -> None:
        self.clustering_features = tuple(self.clustering_features)
        self.graph_features = tuple(self.graph_features)
        for name in self.clustering_features + self.graph_features:
            if name not in ALL_FEATURES:
                raise InvalidConfig(f"unknown feature name {name!r}")
        for key in ("clustering_features", "graph_features"):
            names = getattr(self, key)
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise InvalidConfig(f"{key} names a feature more than once: {repeated}")
        for gran in (self.clustering_granularity, self.graph_granularity):
            if gran not in ("daily", "minute"):
                raise InvalidConfig(f"granularity must be daily or minute, got {gran!r}")
        if not self.clustering_features:
            raise InvalidConfig("clustering_features must name at least 1 feature")
        if len(self.graph_features) < 2:
            raise InvalidConfig(
                f"graph_features must name at least 2 features, got {list(self.graph_features)}"
            )
        if self.clustering_granularity == "minute" and self.graph_granularity == "daily":
            raise InvalidConfig(
                "minute clustering needs a minute graph: a daily graph row spans "
                "minutes of several clusters"
            )


@dataclass
class SegmentationConfig:
    invert_rank: bool = False
    bucket_edges: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def __post_init__(self) -> None:
        require_bool("invert_rank", self.invert_rank)
        for edge in self.bucket_edges:
            require_number("bucket_edges entry", edge)
        self.bucket_edges = edges = tuple(float(e) for e in self.bucket_edges)
        if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise InvalidConfig(
                f"bucket_edges must be at least 2 strictly increasing numbers, got {list(edges)}"
            )


@dataclass
class CausalityConfig:
    pairs: tuple[tuple[str, str], ...] = DEFAULT_CAUSALITY_PAIRS
    lag: int = 1
    alpha: float = 0.05
    first_difference: bool = False

    def __post_init__(self) -> None:
        self.pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        unknown = sorted({name for pair in self.pairs for name in pair} - set(MINUTE_FEATURES))
        if unknown:
            raise InvalidConfig(f"causality pairs name unknown or non-minute feature(s): {unknown}")
        require_int("lag", self.lag, 1)
        require_bool("first_difference", self.first_difference)
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass
class PipelineConfig:
    input: str | None = None
    output_dir: str | None = None
    seed: int = 0
    synth: GeneratorConfig = field(default_factory=GeneratorConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    glasso: GlassoConfig = field(default_factory=GlassoConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    causality: CausalityConfig = field(default_factory=CausalityConfig)

    def __post_init__(self) -> None:
        require_int("seed", self.seed, 0)
        for name in ("input", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise InvalidConfig(f"{name} must be a string or null, got {value!r}")
        n_features = len(self.features.clustering_features)
        if self.clustering.pca_dim is not None and self.clustering.pca_dim > n_features:
            raise InvalidConfig(
                f"pca_dim {self.clustering.pca_dim} exceeds the {n_features} clustering features"
            )

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
