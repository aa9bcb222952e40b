import csv
import json

import numpy as np
import pytest

from ciltrack.cli import cli_dispatch

TINY_INI = """\
[world]
n_classes = 3
class_frequencies = 3, 2, 1
n_sequences = 3
frames_per_sequence = 8
objects_per_sequence = 3
feature_dim = 12

[training]
epochs = 1
hidden_dim = 16
embed_dim = 8

[plan]
strategy = semantic
method = finetune
groups = 0,1; 2
"""


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TINY_INI)
    return str(path)


def run(*argv):
    return cli_dispatch(list(argv))


class TestUsage:
    def test_no_subcommand_exit_1(self, capsys):
        assert run() == 1
        assert "UsageError" in capsys.readouterr().err

    def test_missing_required_arg_exit_1(self, capsys):
        assert run("gen") == 1
        err = capsys.readouterr().err
        assert err.startswith("ciltrack: UsageError:")

    def test_unknown_subcommand_exit_1(self):
        assert run("frobnicate") == 1


class TestErrors:
    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code = run(
            "evaluate", "--gt", str(tmp_path / "none"), "--pred",
            str(tmp_path / "none"), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ciltrack: NotFoundError:")
        assert len(err.strip().splitlines()) == 1

    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        code = run("gen", "--config", str(bad), "--out", str(tmp_path / "d"))
        assert code == 2
        assert "FormatError" in capsys.readouterr().err


class TestPipeline:
    def test_gen_evaluate_and_protocol(self, tmp_path, ini, capsys):
        data = str(tmp_path / "data")
        assert run("gen", "--config", ini, "--out", data) == 0
        assert (tmp_path / "data" / "manifest.json").is_file()

        # self-evaluation of the ground truth is a perfect score
        out = str(tmp_path / "selfeval")
        assert run("evaluate", "--gt", data, "--pred", data, "--out", out) == 0
        report = json.loads((tmp_path / "selfeval" / "metrics.json").read_text())
        assert report["means"]["mMOTA"] == 1.0

        run_dir = str(tmp_path / "run")
        assert run("run-protocol", "--config", ini, "--out", run_dir) == 0
        assert (tmp_path / "run" / "config.ini").is_file()
        assert (tmp_path / "run" / "stage_1" / "metrics.csv").is_file()
        stdout = capsys.readouterr().out
        assert "stage 0:" in stdout and "stage 1:" in stdout

        assert run("report", "--run", run_dir) == 0
        svg = (tmp_path / "run" / "report.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_seed_flag_changes_world(self, tmp_path, ini):
        a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
        run("gen", "--config", ini, "--seed", "1", "--out", a)
        run("gen", "--config", ini, "--seed", "1", "--out", b)
        run("gen", "--config", ini, "--seed", "2", "--out", c)
        sa = (tmp_path / "a" / "seq_000.jsonl").read_text()
        assert sa == (tmp_path / "b" / "seq_000.jsonl").read_text()
        assert sa != (tmp_path / "c" / "seq_000.jsonl").read_text()

    def test_train_stage_then_label_and_track(self, tmp_path, ini):
        data = str(tmp_path / "data")
        run("gen", "--config", ini, "--out", data)
        ckpt = str(tmp_path / "s0.bin")
        assert (
            run(
                "train-stage", "--config", ini, "--data", data,
                "--stage", "0", "--out", ckpt,
            )
            == 0
        )
        pl_dir = str(tmp_path / "pls")
        assert (
            run(
                "pseudo-label", "--config", ini, "--ckpt", ckpt,
                "--data", data, "--mode", "det", "--out", pl_dir,
            )
            == 0
        )
        assert (tmp_path / "pls" / "manifest.json").is_file()
        trk_dir = str(tmp_path / "trk")
        assert (
            run(
                "track", "--config", ini, "--ckpt", ckpt,
                "--data", data, "--out", trk_dir,
            )
            == 0
        )
        assert (tmp_path / "trk" / "manifest.json").is_file()

    def test_protocol_determinism(self, tmp_path, ini):
        a, b = str(tmp_path / "ra"), str(tmp_path / "rb")
        run("run-protocol", "--config", ini, "--out", a)
        run("run-protocol", "--config", ini, "--out", b)
        for stage in ("stage_0", "stage_1"):
            with open(f"{a}/{stage}/metrics.csv", newline="") as f:
                rows_a = list(csv.reader(f))
            with open(f"{b}/{stage}/metrics.csv", newline="") as f:
                rows_b = list(csv.reader(f))
            assert rows_a == rows_b


class TestFailFast:
    def test_divergent_training_exit_3(self, tmp_path, capsys):
        ini = tmp_path / "div.ini"
        ini.write_text(
            "[world]\nn_sequences = 2\nframes_per_sequence = 8\n"
            "[training]\nbase_lr = 1e300\n"
        )
        with np.errstate(all="ignore"):
            code = run("run-protocol", "--config", str(ini), "--out", str(tmp_path / "r"))
        assert code == 3
        err = capsys.readouterr().err
        assert "ciltrack: NumericalError: training diverged at epoch 0, step " in err

    def test_out_of_range_config_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "e0.ini"
        ini.write_text("[training]\nepochs = 0\n")
        assert run("gen", "--config", str(ini), "--out", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ciltrack: ValidationError: [training] epochs = 0")

    def test_truncated_checkpoint_exit_2(self, tmp_path, ini, capsys):
        data = str(tmp_path / "data")
        run("gen", "--config", ini, "--out", data)
        ckpt = tmp_path / "s0.bin"
        run("train-stage", "--config", ini, "--data", data, "--stage", "0",
            "--out", str(ckpt))
        full = ckpt.read_bytes()
        for cut in (4, 12, 40, len(full) - 100):
            ckpt.write_bytes(full[:cut])
            code = run("track", "--config", ini, "--ckpt", str(ckpt),
                       "--data", data, "--out", str(tmp_path / "trk"))
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("ciltrack: FormatError: ")
            assert str(ckpt) in err and f"file has {cut}" in err
