"""Config defaults, validation, serialization, and error-family exit codes."""

import json

import pytest

import energyseg.errors as errors_mod
from energyseg.config import (
    CausalityConfig,
    ClusteringConfig,
    FeatureConfig,
    GlassoConfig,
    PipelineConfig,
    load_config,
)
from energyseg.pipeline import run_command
from energyseg.synthetic import GeneratorConfig
from energyseg.errors import (
    AnalysisError,
    ConfigError,
    DataSizeError,
    InvalidConfig,
    NumericError,
    SchemaError,
)


class TestDefaults:
    def test_pipeline_defaults(self):
        cfg = PipelineConfig()
        assert cfg.seed == 0
        assert cfg.input is None and cfg.output_dir is None
        assert cfg.glasso.symmetrization == "OR"
        assert cfg.glasso.tol == 1e-6
        assert cfg.glasso.folds == 5
        assert cfg.clustering.k == 3
        assert cfg.clustering.k_range == (1, 6)
        assert cfg.clustering.pca_variance == 0.9
        assert cfg.segmentation.invert_rank is False
        assert len(cfg.segmentation.bucket_edges) == 11
        assert cfg.causality.lag == 1
        assert cfg.causality.alpha == 0.05
        assert ("humidity", "status_fan") in cfg.causality.pairs
        assert cfg.synth.players_per_class == (2, 2, 2)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: GlassoConfig(folds=1),
            lambda: GlassoConfig(tol=0.0),
            lambda: GlassoConfig(symmetrization="XOR"),
            lambda: GlassoConfig(selection="bogus"),
            lambda: ClusteringConfig(k=0),
            lambda: ClusteringConfig(pca_variance=1.5),
            lambda: ClusteringConfig(max_iters=0),
            lambda: CausalityConfig(lag=0),
            lambda: CausalityConfig(alpha=1.5),
            lambda: FeatureConfig(clustering_features=("foo",)),
        ],
    )
    def test_invalid_values_rejected(self, build):
        with pytest.raises(InvalidConfig):
            build()

    def test_k_auto_allowed(self):
        assert ClusteringConfig(k="auto").k == "auto"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        # the config.json echo of a run loads back as the config that ran
        cfg = PipelineConfig(seed=9, synth=GeneratorConfig(players_per_class=(1, 1, 1), n_days=1))
        cfg.glasso.folds = 4
        cfg.clustering.k = "auto"
        cfg.causality.lag = 2
        cfg.features.clustering_granularity = "daily"
        run_command("synth", cfg, str(tmp_path))
        assert load_config(str(tmp_path / "config.json")) == cfg

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 4, "glasso": {"folds": 3}}))
        cfg = load_config(str(path))
        assert cfg.seed == 4
        assert cfg.glasso.folds == 3
        assert cfg.glasso.symmetrization == "OR"
        assert cfg.clustering.k == 3

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(InvalidConfig):
            load_config(str(path))

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"glasso": {"bogus": 1}}))
        with pytest.raises(InvalidConfig):
            load_config(str(path))

    def test_removed_parallel_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"glasso": {"parallel": False}}))
        with pytest.raises(InvalidConfig, match=r"unknown glasso option\(s\): \['parallel'\]"):
            load_config(str(path))

    def test_removed_batch_size_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"clustering": {"batch_size": 256}}))
        with pytest.raises(
            InvalidConfig, match=r"unknown clustering option\(s\): \['batch_size'\]"
        ):
            load_config(str(path))

    def test_invalid_value_in_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"glasso": {"symmetrization": "XOR"}}))
        with pytest.raises(InvalidConfig):
            load_config(str(path))

    @pytest.mark.parametrize(
        "data",
        [
            {"clustering": {"k_range": ["a", 2]}},
            {"clustering": {"k_range": [2]}},
            {"clustering": {"k": "x"}},
            {"synth": {"players_per_class": ["x", 1, 1]}},
            {"causality": {"pairs": [["a"]]}},
            {"segmentation": {"bucket_edges": ["q"]}},
            {"synth": {"n_days": 0}},
            {"synth": {"players_per_class": [1, 2]}},
            {"seed": "x"},
            {"clustering": {"k_range": [5, 2]}},
            {"synth": {"n_days": 1.5}},
            {"glasso": {"folds": 2.5}},
            {"glasso": {"max_sweeps": 2.5}},
            {"clustering": {"max_iters": 2.5}},
            {"clustering": {"n_init": 2.5}},
            {"clustering": {"pca_dim": 2.5}},
            {"causality": {"lag": 1.5}},
            {"input": 5},
            {"output_dir": 5},
            {"clustering": {"k_range": [0, 3]}},
            {"causality": {"pairs": [["switch_freq_fan", "status_fan"]]}},
            {"causality": {"pairs": [["humidty", "status_fan"]]}},
            {"features": {"clustering_granularity": "minute", "graph_granularity": "daily"}},
            {"segmentation": {"invert_rank": "false"}},
            {"synth": {"clamp_points_at_zero": "false"}},
            {"causality": {"first_difference": "no"}},
            {"clustering": {"k": 2.7}},
            {"clustering": {"k_range": [1.5, 4.9]}},
            {"synth": {"players_per_class": [1.5, 1, 1]}},
            {"glasso": {"tol": True}},
            {"synth": {"booster": True}},
            {"synth": {"weather_noise": True}},
            {"synth": {"behavior_jitter": True}},
            {"clustering": {"pca_variance": True}},
            {"clustering": {"k": True}},
            {"segmentation": {"bucket_edges": [0.0, 0.5, 0.5, 1.0]}},
            {"segmentation": {"bucket_edges": [0.0]}},
            {"features": {"clustering_features": []}},
            {"features": {"graph_features": ["humidity"]}},
            {"glasso": {"tol": float("nan")}},
            {"synth": {"booster": float("inf")}},
            {"segmentation": {"bucket_edges": [0.0, float("nan"), 1.0]}},
            {"features": {"graph_features": ["humidity", "humidity", "status_fan"]}},
            {"features": {"clustering_features": ["portal_visits", "portal_visits"]}},
            {"clustering": {"pca_dim": 40}},
            {"features": {"clustering_features": ["portal_visits"]}, "clustering": {"pca_dim": 2}},
        ],
    )
    def test_malformed_value_rejected_at_load(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidConfig):
            load_config(str(path))


class TestErrorFamilies:
    def test_exit_codes_distinct_per_family(self):
        assert AnalysisError.exit_code == 1
        assert ConfigError.exit_code == 2
        assert SchemaError.exit_code == 3
        assert DataSizeError.exit_code == 4
        assert NumericError.exit_code == 5

    def test_every_concrete_error_in_a_family(self):
        families = (ConfigError, SchemaError, DataSizeError, NumericError)
        for name in dir(errors_mod):
            obj = getattr(errors_mod, name)
            if not (isinstance(obj, type) and issubclass(obj, AnalysisError)):
                continue
            if obj in (AnalysisError,) + families:
                continue
            assert any(issubclass(obj, fam) for fam in families), name
            assert obj.exit_code != 1, name
