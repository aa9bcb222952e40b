import pytest

from ciltrack.config import (
    ExperimentConfig,
    PlanConfig,
    read_config,
    write_config,
)
from ciltrack.data import Method
from ciltrack.errors import FormatError, ValidationError
from ciltrack.simworld import WorldConfig


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRead:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = read_config(write(tmp_path, ""))
        assert cfg == ExperimentConfig()

    def test_partial_override(self, tmp_path):
        cfg = read_config(
            write(
                tmp_path,
                "[world]\nseed = 7\nn_sequences = 4\n\n[training]\nepochs = 2\n",
            )
        )
        assert cfg.world.seed == 7
        assert cfg.world.n_sequences == 4
        assert cfg.world.n_classes == WorldConfig().n_classes
        assert cfg.training.epochs == 2
        assert cfg.training.base_lr == 0.02

    def test_class_frequencies_list(self, tmp_path):
        cfg = read_config(
            write(
                tmp_path,
                "[world]\nn_classes = 3\nclass_frequencies = 5, 3, 2\n",
            )
        )
        assert cfg.world.class_frequencies == (5.0, 3.0, 2.0)

    def test_confidence_model_keys(self, tmp_path):
        cfg = read_config(
            write(tmp_path, "[noise]\nconf_true_mean = 0.9\nconf_clutter_std = 0.2\n")
        )
        assert cfg.noise.conf_model.true_mean == 0.9
        assert cfg.noise.conf_model.clutter_std == 0.2
        assert cfg.noise.conf_model.true_std == 0.1  # default retained

    def test_plan_section(self, tmp_path):
        cfg = read_config(
            write(
                tmp_path,
                "[plan]\nstrategy = semantic\nmethod = det_pl\ngroups = 0,1,2; 3,4,5\n",
            )
        )
        assert cfg.plan.strategy == "semantic"
        assert cfg.plan.method is Method.DET_PL
        assert cfg.plan.groups == ((0, 1, 2), (3, 4, 5))

    def test_comments_and_inline_comments(self, tmp_path):
        cfg = read_config(
            write(tmp_path, "# top\n[world]\nseed = 3  # inline\n")
        )
        assert cfg.world.seed == 3

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_config(write(tmp_path, "[wurld]\nseed = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_config(write(tmp_path, "[world]\nsede = 1\n"))

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_config(write(tmp_path, "[plan]\nmethod = dreambooth\n"))

    def test_malformed_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_config(write(tmp_path, "seed = 1\n"))  # key before section

    def test_bad_value_type_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_config(write(tmp_path, "[world]\nseed = soon\n"))


class TestPlanBuild:
    def test_strategies_resolve(self):
        world = WorldConfig()
        for strategy, n_stages in (
            ("most_to_least", 6),
            ("general_specific", 2),
        ):
            plan = PlanConfig(strategy=strategy, method=Method.TRACK_PL).build(world)
            assert len(plan.stages) == n_stages

    def test_semantic_requires_groups(self):
        with pytest.raises(ValidationError):
            PlanConfig(strategy="semantic").build(WorldConfig())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            PlanConfig(strategy="alphabetical").build(WorldConfig())


class TestRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        path = str(tmp_path / "resolved.ini")
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_modified_round_trip(self, tmp_path):
        src = write(
            tmp_path,
            "[world]\nseed = 11\nn_classes = 4\nclass_frequencies = 4, 3, 2, 1\n"
            "[noise]\nfp_rate = 1.25\nconf_true_mean = 0.8\n"
            "[plan]\nstrategy = semantic\nmethod = oracle\ngroups = 0,1; 2,3\n",
        )
        cfg = read_config(src)
        out = str(tmp_path / "resolved.ini")
        write_config(cfg, out)
        assert read_config(out) == cfg


class TestRanges:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("training", "epochs", "0"),
            ("training", "batch_size", "0"),
            ("training", "base_lr", "0"),
            ("training", "base_lr", "-0.02"),
            ("training", "base_lr", "nan"),
            ("training", "base_lr", "inf"),
            ("training", "clip_norm", "-1"),
            ("training", "clip_norm", "nan"),
            ("tracker", "max_age", "-3"),
            ("tracker", "min_hits", "0"),
            ("contrastive", "sigma_p", "0"),
            ("contrastive", "sigma_p", "-0.05"),
        ],
    )
    def test_out_of_range_rejected(self, tmp_path, section, key, value):
        path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValidationError, match=rf"^\[{section}\] {key} = "):
            read_config(path)

    def test_boundary_values_accepted(self, tmp_path):
        cfg = read_config(
            write(
                tmp_path,
                "[training]\nepochs = 1\nbatch_size = 1\nclip_norm = 0\n"
                "[tracker]\nmax_age = 0\nmin_hits = 1\n",
            )
        )
        assert cfg.training.clip_norm == 0.0
        assert cfg.tracker.max_age == 0
