"""End-to-end checks of the command-line interface.

Everything goes through dispatch() in-process so the suite stays fast;
subprocess tests confirm the installed console script and `python -m`
are wired up.
"""

import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from analogia.analogy_core import HyperParams
from analogia.cli import LOSS_LOG_FILE, dispatch, read_config_file
from analogia.synthetic import build_corpus, write_corpus
from analogia.text_data import ConfigError
from analogia.training import TrainConfig

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "data"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus = build_corpus(train_per_type=10, eval_per_type=3, embedding_dim=8, seed=0)
    write_corpus(corpus, root)
    return root


@pytest.fixture(scope="module")
def checkpoint(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model"
    rc = dispatch(["train",
                   "--data", str(corpus_dir / "train.tsv"),
                   "--embeddings", str(corpus_dir / "vectors.vec"),
                   "--prototypes", "2", "--epochs", "2", "--dim", "8",
                   "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


def _run(capsys, argv):
    rc = dispatch(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        rc, out, _ = _run(capsys, ["--help"])
        assert rc == 0
        assert "gen-quadruples" in out

    def test_subcommand_help_exits_zero(self, capsys):
        rc, out, _ = _run(capsys, ["train", "--help"])
        assert rc == 0
        assert "--weight-decay" in out

    def test_no_subcommand(self, capsys):
        rc, _, err = _run(capsys, [])
        assert rc == 1
        assert "subcommand" in err

    def test_missing_required_flag_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "q.tsv"
        rc, _, err = _run(capsys, ["gen-quadruples", "--out", str(out)])
        assert rc == 1
        assert "--data" in err
        assert not out.exists()

    def test_unknown_flag(self, capsys):
        rc, _, err = _run(capsys, ["eval", "--bogus", "1"])
        assert rc == 1
        assert "usage" in err

    def test_bad_choice(self, capsys, corpus_dir):
        rc, _, _ = _run(capsys, ["baseline",
                                 "--data", str(corpus_dir / "train.tsv"),
                                 "--embeddings", str(corpus_dir / "vectors.vec"),
                                 "--method", "psychic"])
        assert rc == 1

    def test_bad_types_value(self, capsys, corpus_dir):
        rc, _, err = _run(capsys, ["gen-quadruples",
                                   "--data", str(corpus_dir / "train.tsv"),
                                   "--types", "Who,How"])
        assert rc == 1
        assert "How" in err


class TestDataErrors:
    def test_missing_data_file(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["gen-quadruples", "--data", str(tmp_path / "absent.tsv")])
        assert rc == 2
        assert "absent.tsv" in err

    def test_malformed_dataset_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("who wrote it\tonly\tthree\n")
        rc, _, err = _run(capsys, ["gen-quadruples", "--data", str(bad)])
        assert rc == 2
        assert "line 1" in err

    def test_failed_run_leaves_no_output(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("who wrote it\tonly\tthree\n")
        out = tmp_path / "q.tsv"
        rc, _, _ = _run(capsys, ["gen-quadruples", "--data", str(bad), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_embedding_dim_mismatch(self, capsys, checkpoint, corpus_dir, tmp_path):
        vec = tmp_path / "tiny.vec"
        vec.write_text("1 2\nword 0.5 0.5\n")
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(checkpoint),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(vec)])
        assert rc == 2
        assert "input_dim" in err

    def test_truncated_checkpoint(self, capsys, checkpoint, corpus_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(checkpoint, broken)
        os.remove(broken / "weights.bin")
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert "weights.bin" in err

    def test_non_finite_checkpoint_weight(self, capsys, checkpoint, corpus_dir, tmp_path):
        """One float of a saved tensor set to NaN: eval refuses the
        checkpoint with status 2, naming the tensor and weights.bin."""
        broken = tmp_path / "nan"
        shutil.copytree(checkpoint, broken)
        name, _, offset = (broken / "manifest.txt").read_text().splitlines()[4].split("\t")
        with open(broken / "weights.bin", "r+b") as fh:
            fh.seek(int(offset) + 4)
            fh.write(struct.pack("<f", float("nan")))
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert f"tensor {name} has non-finite values" in err
        assert "weights.bin" in err

    def test_aliased_tensor_rejected(self, capsys, checkpoint, corpus_dir, tmp_path):
        """forward.U_z pointed at offset 0, so that it would alias
        forward.W_z, with 64 junk bytes appended to keep every read in
        range: eval refuses the manifest line with status 2."""
        broken = tmp_path / "alias"
        shutil.copytree(checkpoint, broken)
        lines = (broken / "manifest.txt").read_text().splitlines()
        cols = lines[1].split("\t")
        assert cols[0] == "forward.U_z"
        lines[1] = "\t".join(cols[:2] + ["0"])
        (broken / "manifest.txt").write_text("".join(line + "\n" for line in lines))
        with open(broken / "weights.bin", "ab") as fh:
            fh.write(bytes(64))
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert "manifest.txt: line 2: tensor forward.U_z" in err

    @pytest.mark.parametrize("extra", [4, 64])
    def test_trailing_weight_bytes_rejected(self, capsys, checkpoint, corpus_dir, tmp_path, extra):
        broken = tmp_path / "trailing"
        shutil.copytree(checkpoint, broken)
        with open(broken / "weights.bin", "ab") as fh:
            fh.write(bytes(extra))
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert f"weights.bin: {extra} bytes after the" in err

    @pytest.mark.parametrize("cut, message", [(-1, "line 18: tensor backward.b_h: got end of file"),
                                              (None, "line 19: unexpected line after the 18 tensors")],
                             ids=["missing-line", "extra-line"])
    def test_manifest_line_count_checked(self, capsys, checkpoint, corpus_dir, tmp_path, cut, message):
        broken = tmp_path / "lines"
        shutil.copytree(checkpoint, broken)
        lines = (broken / "manifest.txt").read_text().splitlines()
        lines = lines[:cut] if cut else lines + [lines[-1]]
        (broken / "manifest.txt").write_text("".join(line + "\n" for line in lines))
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert message in err

    @pytest.mark.parametrize("row, col, value", [(2, 1, "4,5"), (3, 1, "four"), (5, 2, "0x10")],
                             ids=["shape-disagrees-with-config", "non-integer-shape", "non-integer-offset"])
    def test_bad_manifest_entry_names_file_and_line(self, capsys, checkpoint, corpus_dir, tmp_path,
                                                    row, col, value):
        broken = tmp_path / "manifest"
        shutil.copytree(checkpoint, broken)
        lines = (broken / "manifest.txt").read_text().splitlines()
        cols = lines[row - 1].split("\t")
        cols[col] = value
        lines[row - 1] = "\t".join(cols)
        (broken / "manifest.txt").write_text("".join(line + "\n" for line in lines))
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert f"manifest.txt: line {row}: tensor {cols[0]}" in err

    @pytest.mark.parametrize("edit", [
        lambda meta: "[]\n",
        lambda meta: json.dumps({**meta, "hidden": 4.7}),
        lambda meta: json.dumps({**meta, "hidden": "four"}),
        lambda meta: json.dumps({**meta, "input_dim": True}),
        lambda meta: json.dumps(meta)[:-1],
        lambda meta: b"\xff" + json.dumps(meta).encode(),
    ], ids=["not-an-object", "float-hidden", "string-hidden", "bool-input-dim", "malformed-json", "not-utf8"])
    def test_bad_config_json_names_the_file(self, capsys, checkpoint, corpus_dir, tmp_path, edit):
        broken = tmp_path / "config"
        shutil.copytree(checkpoint, broken)
        meta = json.loads((broken / "config.json").read_text())
        text = edit(meta)
        (broken / "config.json").write_bytes(text if isinstance(text, bytes) else text.encode())
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 2
        assert "config.json" in err

    @pytest.mark.parametrize("reader", ["dataset", "embeddings", "manifest", "prototypes"])
    def test_undecodable_line_names_file_and_line(self, capsys, checkpoint, corpus_dir, tmp_path, reader):
        """One 0xff byte in line 2 of each text file eval reads: status 2,
        naming that file and line."""
        broken = tmp_path / "ckpt"
        shutil.copytree(checkpoint, broken)
        files = {"dataset": tmp_path / "heldout.tsv", "embeddings": tmp_path / "vectors.vec",
                 "manifest": broken / "manifest.txt", "prototypes": broken / "prototypes.tsv"}
        shutil.copy(corpus_dir / "heldout.tsv", files["dataset"])
        shutil.copy(corpus_dir / "vectors.vec", files["embeddings"])
        target = files[reader]
        lines = target.read_bytes().split(b"\n")
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
        target.write_bytes(b"\n".join(lines))
        rc, _, err = _run(capsys, ["eval", "--checkpoint", str(broken), "--data", str(files["dataset"]),
                                   "--embeddings", str(files["embeddings"])])
        assert rc == 2
        assert f"{target}: line 2: not UTF-8 text" in err

    def test_bad_env_seed(self, capsys, corpus_dir, monkeypatch):
        monkeypatch.setenv("ANALOGIA_SEED", "not-a-number")
        rc, _, err = _run(capsys, ["gen-quadruples", "--data", str(corpus_dir / "train.tsv")])
        assert rc == 2
        assert "ANALOGIA_SEED" in err


class TestQuickStartCheckpoint:
    """The README quick start against a committed checkpoint of it, written
    by an earlier version of the trainer: eval prints the committed report,
    and train writes the same files byte for byte."""

    def test_eval_prints_committed_report(self, capsys):
        rc, out, _ = _run(capsys, ["eval", "--checkpoint", str(FIXTURES / "quickstart_checkpoint"),
                                   "--data", str(REPO / "data" / "toy_qa.tsv"),
                                   "--embeddings", str(REPO / "data" / "toy_vectors.vec")])
        assert rc == 0
        assert out == (FIXTURES / "quickstart_eval.tsv").read_text()

    def test_train_writes_committed_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)  # config.json records the data paths as given
        out = tmp_path / "model"
        rc = dispatch(["train", "--data", "data/toy_qa.tsv", "--embeddings", "data/toy_vectors.vec",
                       "--prototypes", "2", "--epochs", "10", "--dim", "8", "--seed", "0", "--out", str(out)])
        assert rc == 0
        for name in ("weights.bin", "manifest.txt", "config.json", "prototypes.tsv", LOSS_LOG_FILE):
            assert (out / name).read_bytes() == (FIXTURES / "quickstart_checkpoint" / name).read_bytes(), name


class TestGenQuadruples:
    def test_stdout_table(self, capsys, corpus_dir):
        rc, out, _ = _run(capsys, ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"),
                                   "--prototypes", "2", "--seed", "7"])
        assert rc == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows and all(len(r) == 6 for r in rows)
        assert {r[5] for r in rows} <= {"0", "1"}
        assert {r[0] for r in rows} == {"Who", "When", "Where"}

    def test_types_filter(self, capsys, corpus_dir):
        rc, out, _ = _run(capsys, ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"),
                                   "--prototypes", "2", "--types", "who,where"])
        assert rc == 0
        assert {line.split("\t")[0] for line in out.splitlines()} == {"Who", "Where"}

    def test_reruns_byte_identical(self, capsys, corpus_dir, tmp_path):
        argv = ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"),
                "--prototypes", "3", "--seed", "11"]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert dispatch(argv + ["--out", str(a)]) == 0
        assert dispatch(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_checkpoint_layout(self, checkpoint):
        for name in ("manifest.txt", "weights.bin", "config.json", "prototypes.tsv", LOSS_LOG_FILE):
            assert (checkpoint / name).exists()
        log = (checkpoint / LOSS_LOG_FILE).read_text().splitlines()
        assert log[0] == "epoch\tmean_loss\tdegenerate_quadruples"
        assert len(log) == 3  # header + one row per epoch

    def test_config_records_resolved_values(self, checkpoint, corpus_dir):
        meta = json.loads((checkpoint / "config.json").read_text())
        assert meta["epochs"] == 2
        assert meta["dim"] == 8
        assert meta["seed"] == 5
        assert meta["data"] == str(corpus_dir / "train.tsv")
        assert meta["quadruples"] > 0

    def test_same_seed_same_weights(self, corpus_dir, tmp_path):
        argv = ["train", "--data", str(corpus_dir / "train.tsv"),
                "--embeddings", str(corpus_dir / "vectors.vec"),
                "--prototypes", "2", "--epochs", "1", "--dim", "8", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert dispatch(argv + ["--out", str(a)]) == 0
        assert dispatch(argv + ["--out", str(b)]) == 0
        assert (a / "weights.bin").read_bytes() == (b / "weights.bin").read_bytes()
        assert (a / LOSS_LOG_FILE).read_bytes() == (b / LOSS_LOG_FILE).read_bytes()


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["lr", "weight-decay", "dropout", "margin", "l2-lambda", "clip-norm"])
    def test_non_finite_setting_rejected(self, capsys, corpus_dir, tmp_path, flag, value):
        """Both spellings, --flag=value and --flag value, reach the check."""
        out = tmp_path / "model"
        for spelling in ([f"--{flag}={value}"], [f"--{flag}", value]):
            rc, _, err = _run(capsys, ["train", "--data", str(corpus_dir / "train.tsv"),
                                       "--embeddings", str(corpus_dir / "vectors.vec"),
                                       "--prototypes", "2", "--epochs", "1", "--dim", "8",
                                       *spelling, "--out", str(out)])
            assert rc == 2, spelling
            assert f"{flag.replace('-', '_')} must be a finite number, got {float(value)}" in err
            assert not out.exists()

    def test_negative_value_after_a_space(self, capsys, corpus_dir, tmp_path):
        out = tmp_path / "model"
        rc, _, err = _run(capsys, ["train", "--data", str(corpus_dir / "train.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec"),
                                   "--prototypes", "2", "--epochs", "1", "--dim", "8",
                                   "--margin", "-1e-3", "--out", str(out)])
        assert (rc, err) == (0, "")
        assert json.loads((out / "config.json").read_text())["margin"] == -0.001

    def test_negative_number_is_no_value_of_a_switch(self, capsys, corpus_dir):
        rc, _, err = _run(capsys, ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"),
                                   "--has-header", "-1"])
        assert rc == 1
        assert "unrecognized arguments: -1" in err

    def test_config_records_every_setting(self, corpus_dir, tmp_path):
        """Every TrainConfig and HyperParams field, each off its default,
        and --has-header reach config.json with the values given."""
        data = tmp_path / "train.tsv"
        data.write_text("question_id\tquestion\tcandidate\tlabel\n" + (corpus_dir / "train.tsv").read_text())
        given = {"epochs": 1, "batch_size": 5, "lr": 0.003, "weight_decay": 0.02, "dropout": 0.25,
                 "margin": 0.2, "loss_variant": "literal", "l2_lambda": 0.001, "dim": 6,
                 "negatives_per_positive": 2, "clip_norm": 1.5, "seed": 3}
        fields = {f.name for f in dataclasses.fields(TrainConfig) if f.name != "hp"}
        assert set(given) == fields | {f.name for f in dataclasses.fields(HyperParams)}
        for name, value in given.items():
            owner = HyperParams if name in HyperParams.__dataclass_fields__ else TrainConfig
            assert value != getattr(owner, name), name
        out = tmp_path / "model"
        argv = [arg for name, value in given.items() for arg in (f"--{name.replace('_', '-')}", str(value))]
        assert dispatch(["train", "--data", str(data), "--embeddings", str(corpus_dir / "vectors.vec"),
                         "--prototypes", "2", "--has-header", *argv, "--out", str(out)]) == 0
        meta = json.loads((out / "config.json").read_text())
        assert {name: meta.get(name) for name in given} == given
        assert meta["has_header"] is True

class TestRankEval:
    def test_rank_rows(self, capsys, checkpoint, corpus_dir):
        rc, out, _ = _run(capsys, ["rank", "--checkpoint", str(checkpoint),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec")])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "question_id\tcandidate_index\tscore\trank\tbest_prototype_index"
        assert len(lines) == 1 + 9 * 4  # 3 held-out questions per type, 4 candidates each

    def test_eval_report(self, capsys, checkpoint, corpus_dir, tmp_path):
        report = tmp_path / "report.tsv"
        rc, _, _ = _run(capsys, ["eval", "--checkpoint", str(checkpoint),
                                 "--data", str(corpus_dir / "heldout.tsv"),
                                 "--embeddings", str(corpus_dir / "vectors.vec"),
                                 "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "subset\tquestions\tskipped\tMAP\tMRR"
        assert [l.split("\t")[0] for l in lines[1:]] == ["Who", "When", "Where", "Other", "Combined"]

    def test_dissimilarity_mode(self, capsys, checkpoint, corpus_dir):
        rc, out, _ = _run(capsys, ["eval", "--checkpoint", str(checkpoint),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec"),
                                   "--mode", "dissimilarity"])
        assert rc == 0
        assert out.startswith("subset\t")


class TestBaselineSweep:
    def test_mean_baseline(self, capsys, corpus_dir):
        rc, out, _ = _run(capsys, ["baseline", "--data", str(corpus_dir / "heldout.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec"),
                                   "--proto-data", str(corpus_dir / "train.tsv"),
                                   "--prototypes", "2"])
        assert rc == 0
        assert out.startswith("subset\t")

    def test_random_baseline_seeded(self, capsys, corpus_dir):
        argv = ["baseline", "--data", str(corpus_dir / "heldout.tsv"),
                "--embeddings", str(corpus_dir / "vectors.vec"),
                "--proto-data", str(corpus_dir / "train.tsv"),
                "--method", "random", "--seed", "3"]
        rc1, out1, _ = _run(capsys, argv)
        rc2, out2, _ = _run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_sweep_rows_match_p(self, capsys, checkpoint, corpus_dir):
        rc, out, _ = _run(capsys, ["sweep-prototypes", "--checkpoint", str(checkpoint),
                                   "--data", str(corpus_dir / "heldout.tsv"),
                                   "--proto-data", str(corpus_dir / "train.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec"),
                                   "--p", "2,4"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "p\tMAP\tMRR"
        assert [l.split("\t")[0] for l in lines[1:]] == ["2", "4"]

    def test_bad_p_list(self, capsys, checkpoint, corpus_dir):
        rc, _, _ = _run(capsys, ["sweep-prototypes", "--checkpoint", str(checkpoint),
                                 "--data", str(corpus_dir / "heldout.tsv"),
                                 "--embeddings", str(corpus_dir / "vectors.vec"),
                                 "--p", "2,zero"])
        assert rc == 1


class TestCheckGradients:
    def test_passes_on_small_run(self, capsys):
        rc, out, _ = _run(capsys, ["check-gradients", "--instances", "2", "--seed", "0"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(line.endswith("PASS") for line in lines)

    def test_single_precision(self, capsys):
        rc, out, _ = _run(capsys, ["check-gradients", "--instances", "1", "--precision", "f64"])
        assert rc == 0
        assert out.startswith("f64:")


    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_instance_count_below_one_rejected(self, capsys, count):
        rc, out, err = _run(capsys, ["check-gradients", f"--instances={count}"])
        assert rc == 2
        assert out == ""
        assert f"--instances must be at least 1, got {count}" in err

class TestConfigResolution:
    def test_read_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nprototypes 3\nseed = 11\n\nloss-variant literal\n")
        assert read_config_file(cfg) == {"prototypes": "3", "seed": "11",
                                         "loss_variant": "literal"}

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("justakey\n")
        with pytest.raises(ConfigError, match="line 1"):
            read_config_file(cfg)

    def test_crlf_config_file_reads_like_lf(self, tmp_path):
        lines = [b"# a comment", b"prototypes 3", b"seed = 11", b"", b"loss-variant literal", b""]
        lf, crlf = tmp_path / "lf.cfg", tmp_path / "crlf.cfg"
        lf.write_bytes(b"\n".join(lines))
        crlf.write_bytes(b"\r\n".join(lines))
        assert read_config_file(crlf) == read_config_file(lf) == {"prototypes": "3", "seed": "11",
                                                                  "loss_variant": "literal"}

    def test_undecodable_config_names_file_and_line(self, capsys, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs 2\n\xff dim 8\n")
        rc, out, err = _run(capsys, ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"),
                                     "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert f"{cfg}: line 2: not UTF-8 text" in err

    def test_flag_beats_config_beats_default(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prototypes 3\nepochs 2\ndim 8\nseed 11\n")
        out = tmp_path / "model"
        rc = dispatch(["train", "--data", str(corpus_dir / "train.tsv"),
                       "--embeddings", str(corpus_dir / "vectors.vec"),
                       "--config", str(cfg), "--epochs", "1", "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "config.json").read_text())
        assert meta["epochs"] == 1        # flag wins
        assert meta["prototypes"] == 3    # config file wins over default
        assert meta["seed"] == 11
        assert meta["batch_size"] == 32   # untouched default

    def test_bad_config_value_type(self, capsys, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs many\n")
        rc, _, err = _run(capsys, ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"),
                                   "--config", str(cfg), "--prototypes", "2"])
        # gen-quadruples ignores keys it does not define
        assert rc == 0

        rc, _, err = _run(capsys, ["train", "--data", str(corpus_dir / "train.tsv"),
                                   "--embeddings", str(corpus_dir / "vectors.vec"),
                                   "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "epochs" in err

    def test_env_seed_fallback(self, capsys, corpus_dir, monkeypatch):
        argv = ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"), "--prototypes", "2"]
        monkeypatch.setenv("ANALOGIA_SEED", "11")
        _, from_env, _ = _run(capsys, argv)
        monkeypatch.delenv("ANALOGIA_SEED")
        _, from_flag, _ = _run(capsys, argv + ["--seed", "11"])
        _, from_default, _ = _run(capsys, argv)
        assert from_env == from_flag
        assert from_env != from_default

    def test_flag_beats_env_seed(self, capsys, corpus_dir, monkeypatch):
        argv = ["gen-quadruples", "--data", str(corpus_dir / "train.tsv"), "--prototypes", "2"]
        monkeypatch.setenv("ANALOGIA_SEED", "11")
        _, with_flag, _ = _run(capsys, argv + ["--seed", "4"])
        monkeypatch.delenv("ANALOGIA_SEED")
        _, plain, _ = _run(capsys, argv + ["--seed", "4"])
        assert with_flag == plain


def test_console_script_installed():
    proc = subprocess.run(["analogia", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analogy-based answer ranking" in proc.stdout


@pytest.mark.parametrize("module", ["analogia", "analogia.cli"])
def test_python_dash_m_runs_the_cli(module, checkpoint, corpus_dir, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    broken = tmp_path / "broken"
    shutil.copytree(checkpoint, broken)
    os.remove(broken / "weights.bin")
    cmd = [sys.executable, "-m", module]
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "analogy-based answer ranking" in proc.stdout
    proc = subprocess.run(cmd + ["eval", "--checkpoint", str(broken), "--data", str(corpus_dir / "heldout.tsv"),
                                 "--embeddings", str(corpus_dir / "vectors.vec")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "weights.bin" in proc.stderr


def test_module_not_importable_side_effect_free():
    # importing the CLI must not configure logging or touch sys.argv
    code = ("import logging, sys; import analogia.cli; "
            "assert not logging.getLogger().handlers; print('clean')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "clean"


def test_import_starts_no_thread_and_loads_no_pool():
    # the encoder imports concurrent.futures and starts its workers only
    # when encode_many first runs chunks on threads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    code = ("import sys, threading; import analogia.cli; "
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]
