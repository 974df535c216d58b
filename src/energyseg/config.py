"""Declarative run configuration.

A run is described by one JSON document; CLI flags override individual
fields and the effective configuration is echoed into the output directory,
so any artifact can be regenerated from its config alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .errors import InvalidConfig
from .features import ALL_FEATURES, DEFAULT_CLUSTERING_FEATURES, DEFAULT_GRAPH_FEATURES

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
class SynthConfig:
    players_per_class: tuple[int, int, int] = (2, 2, 2)
    n_days: int = 7
    booster: float = 1.0
    clamp_points_at_zero: bool = False
    weather_noise: float = 1.0
    behavior_jitter: float = 0.07

    def __post_init__(self) -> None:
        self.players_per_class = tuple(int(c) for c in self.players_per_class)


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
        for gran in (self.clustering_granularity, self.graph_granularity):
            if gran not in ("daily", "minute"):
                raise InvalidConfig(f"granularity must be daily or minute, got {gran!r}")


@dataclass
class GlassoConfig:
    symmetrization: str = "OR"
    tol: float = 1e-6
    max_sweeps: int = 1000
    folds: int = 5
    selection: str = "one_se"

    def __post_init__(self) -> None:
        if self.symmetrization not in ("OR", "AND"):
            raise InvalidConfig(f"symmetrization must be OR or AND, got {self.symmetrization!r}")
        if self.selection not in ("min", "one_se"):
            raise InvalidConfig(f"selection must be min or one_se, got {self.selection!r}")
        if self.tol <= 0 or self.max_sweeps < 1 or self.folds < 2:
            raise InvalidConfig("tol must be > 0, max_sweeps >= 1, folds >= 2")


@dataclass
class ClusteringConfig:
    k: Any = 3  # cluster count, or "auto" for the elbow suggestion
    k_range: tuple[int, int] = (1, 6)
    pca_variance: float | None = 0.9
    pca_dim: int | None = None
    batch_size: int = 256
    max_iters: int = 200
    n_init: int = 10

    def __post_init__(self) -> None:
        self.k_range = (int(self.k_range[0]), int(self.k_range[1]))
        if self.k != "auto":
            self.k = int(self.k)
            if self.k < 1:
                raise InvalidConfig(f"k must be >= 1 or 'auto', got {self.k}")
        if self.pca_variance is not None and not 0.0 < self.pca_variance <= 1.0:
            raise InvalidConfig(f"pca_variance must be in (0, 1], got {self.pca_variance}")
        if self.batch_size < 1 or self.max_iters < 1 or self.n_init < 1:
            raise InvalidConfig("batch_size, max_iters and n_init must be >= 1")


@dataclass
class SegmentationConfig:
    invert_rank: bool = False
    bucket_edges: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def __post_init__(self) -> None:
        self.bucket_edges = tuple(float(e) for e in self.bucket_edges)


@dataclass
class CausalityConfig:
    pairs: tuple[tuple[str, str], ...] = DEFAULT_CAUSALITY_PAIRS
    lag: int = 1
    alpha: float = 0.05
    first_difference: bool = False

    def __post_init__(self) -> None:
        self.pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        if self.lag < 1:
            raise InvalidConfig(f"lag must be >= 1, got {self.lag}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass
class PipelineConfig:
    input: str | None = None
    output_dir: str | None = None
    seed: int = 0
    standardize: bool = True
    synth: SynthConfig = field(default_factory=SynthConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    glasso: GlassoConfig = field(default_factory=GlassoConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    causality: CausalityConfig = field(default_factory=CausalityConfig)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise InvalidConfig(f"config root must be an object, got {type(data).__name__}")
        data = dict(data)
        sections = {
            "synth": SynthConfig,
            "features": FeatureConfig,
            "glasso": GlassoConfig,
            "clustering": ClusteringConfig,
            "segmentation": SegmentationConfig,
            "causality": CausalityConfig,
        }
        kwargs: dict[str, Any] = {}
        for name, section_cls in sections.items():
            if name in data:
                raw = data.pop(name)
                if not isinstance(raw, dict):
                    raise InvalidConfig(f"section {name!r} must be an object")
                try:
                    kwargs[name] = _from_mapping(section_cls, raw, name)
                except TypeError as exc:
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


def dump_config(config: PipelineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
