import csv
import json

import numpy as np
import pytest

from avoidrec.checkpoint import load_checkpoint, save_checkpoint
from avoidrec.cli import main
from avoidrec.corpus import parse_behaviors_file
from avoidrec.stats import StatsSnapshot, build_timeline, engagement_ratios
from avoidrec.synthetic import SyntheticSpec, generate, write_mind_files


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    spec = SyntheticSpec(n_users=15, n_articles=12, n_buckets=4,
                         impressions_per_bucket=10, base_click_rate=0.3, seed=3)
    write_mind_files(generate(spec), root)
    return root


@pytest.fixture(scope="module")
def config_path(synth_dir, tmp_path_factory):
    cfg = {
        "news_path": str(synth_dir / "news.tsv"),
        "behaviors_path": str(synth_dir / "behaviors.tsv"),
        "val_fraction": 0.2,
        "test_fraction": 0.2,
        "bucket_width": 3600,
        "learning_rate": 0.01,
        "negatives": 2,
        "max_epochs": 1,
        "patience": 1,
        "batch_size": 8,
        "max_steps": 3,
        "seed": 0,
        "model": {
            "d_word": 8, "d_news": 8, "n_heads": 2, "d_att": 6, "d_cat": 4,
            "d_ent": 4, "dim_ue": 4, "grid_d": 5, "d_time": 4, "user_heads": 4,
            "cnn_window": 1, "max_history": 4, "max_title_len": 10,
        },
    }
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    return list(csv.DictReader(lines))


class TestStatsCommand:
    def test_bucket_csvs_match_library(self, synth_dir, tmp_path):
        out = tmp_path / "stats"
        rc = main(["stats", str(synth_dir / "behaviors.tsv"),
                   "--bucket-width", "3600", "--grid-d", "5", "--out", str(out)])
        assert rc == 0
        log = parse_behaviors_file(synth_dir / "behaviors.tsv")
        timeline = build_timeline(log, 3600)
        bucket_files = sorted(out.glob("bucket_*.csv"))
        assert len(bucket_files) == len(timeline.boundaries())
        snap = StatsSnapshot(timeline, timeline.boundaries()[-1])
        rows = read_csv(out / f"bucket_{snap.t}.csv")
        for row in rows:
            if row["news_id"] == "":
                assert int(row["n_E"]) == snap.n_impressions
                continue
            nid = row["news_id"]
            av, epi = engagement_ratios(snap.clicks(nid), snap.exposures(nid), snap.n_impressions)
            assert (float(row["avoidance"]), float(row["epi"])) == (av, epi)
            assert 0.0 <= float(row["clicks_norm"]) <= 1.0
        grid_rows = read_csv(out / f"grid_{snap.t}.csv")
        assert len(grid_rows) == 25

    def test_missing_file_fails(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope.tsv"), "--out", str(tmp_path)]) == 1

    def test_invalid_utf8_fails_naming_the_line(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "behaviors.tsv").read_bytes().split(b"\n")
        assert len(lines) > 40
        lines[39] = lines[39].replace(b"\t", b"\t\xf8", 1)  # line 40
        log = tmp_path / "behaviors.tsv"
        log.write_bytes(b"\n".join(lines))
        out = tmp_path / "stats"
        assert main(["stats", str(log), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {log}: line 40: invalid UTF-8 byte 0xf8\n"

    def test_directory_as_log_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("grid_d", ["0", "-3"])
    def test_bad_grid_d_fails_before_writing(self, synth_dir, tmp_path, capsys, grid_d):
        out = tmp_path / "stats"
        out.mkdir()
        assert main(["stats", str(synth_dir / "behaviors.tsv"), "--grid-d", grid_d,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --grid-d must be an integer >= 1, got {grid_d}\n"
        assert list(out.iterdir()) == []

    def test_plot_data_alias(self, synth_dir, tmp_path):
        rc = main(["plot-data", str(synth_dir / "behaviors.tsv"),
                   "--out", str(tmp_path / "pd")])
        assert rc == 0


class TestSynthCommand:
    def test_generates_and_round_trips(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_users": 8, "n_articles": 6, "n_buckets": 3,
            "impressions_per_bucket": 5, "seed": 1}), encoding="utf-8")
        out = tmp_path / "data"
        assert main(["synth", str(spec_path), "--out", str(out)]) == 0
        log = parse_behaviors_file(out / "behaviors.tsv")
        assert len(log) == 15 and not log.issues

    def test_seed_override_changes_output(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_users": 8, "n_articles": 6, "n_buckets": 3,
            "impressions_per_bucket": 5, "seed": 1}), encoding="utf-8")
        main(["synth", str(spec_path), "--out", str(tmp_path / "a")])
        main(["synth", str(spec_path), "--seed", "2", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "behaviors.tsv").read_bytes()
        b = (tmp_path / "b" / "behaviors.tsv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("spec, args, field", [
        ({"seed": 1}, ["--seed", "-1"], "seed"),
        ({"n_shown": 0}, [], "n_shown"),
        ({"grid_d": 10**30}, [], "grid_d")])
    def test_bad_integer_fails_naming_the_field(self, tmp_path, capsys, spec, args, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["synth", str(spec_path), "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("command, content, field", [
        ("synth", {"bogus": 1}, "bogus"),
        ("synth", [1, 2], "JSON object"),
        ("synth", {"affinity": [[1, "x"]], "grid_d": 1}, "affinity"),
        ("synth", {"affinity": [[1, "2"], [1, 1]], "grid_d": 2}, "affinity"),
        ("synth", {"affinity": [[1, 1], [1]], "grid_d": 2}, "affinity"),
        ("train", [1, 2], "JSON object"),
        ("train", {"model": [1, 2]}, "model"),
        ("train", {"news_path": True}, "news_path"),
        ("train", {"news_path": None}, "news_path"),
        ("train", {"val_behaviors_path": 0}, "val_behaviors_path")])
    def test_bad_config_file_fails_naming_the_field(self, tmp_path, capsys, command, content,
                                                    field):
        path = tmp_path / "file.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        out = tmp_path / "x"
        args = [str(path)] if command == "synth" else ["--config", str(path)]
        assert main([command, *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("command, content, reason", [
        ("synth", b'{"n_users": 8, ', "Expecting property name"),
        ("train", b'{"news_path": "\xff"}', "can't decode byte 0xff")])
    def test_unreadable_json_fails_naming_the_file(self, tmp_path, capsys, command, content,
                                                   reason):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        out = tmp_path / "x"
        args = [str(path)] if command == "synth" else ["--config", str(path)]
        assert main([command, *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a UTF-8 JSON file: ") and reason in err
        assert not out.exists()

    def test_out_that_is_a_file_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_articles": 6, "seed": 1}), encoding="utf-8")
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")

        def refuse(spec):
            raise AssertionError("generate ran before --out was checked")
        monkeypatch.setattr("avoidrec.cli.generate", refuse)
        assert main(["synth", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_an_overflow_is_reported_not_raised(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 1}), encoding="utf-8")

        def overflow(spec):
            return np.random.default_rng(0).choice(3, size=10**30, replace=False)
        monkeypatch.setattr("avoidrec.cli.generate", overflow)
        assert main(["synth", str(spec_path), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: Python int too large")

    def test_infeasible_spec_fails(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "affinity": [[0.0] * 5 for _ in range(5)]}), encoding="utf-8")
        assert main(["synth", str(spec_path), "--out", str(tmp_path / "x")]) == 1


class TestTrainEvalAblate:
    @pytest.mark.parametrize("override, field", [
        ({"negatives": 10**30}, "negatives"),
        ({"model": {"grid_d": 10**30}}, "grid_d")])
    def test_huge_config_integer_fails_naming_the_field_before_the_corpus_is_read(
            self, config_path, tmp_path, capsys, monkeypatch, override, field):
        config = json.loads(config_path.read_text(encoding="utf-8"))
        for name, value in override.items():
            config[name] = {**config[name], **value} if isinstance(value, dict) else value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config), encoding="utf-8")

        def refuse(config):
            raise AssertionError("the corpus was read before the config was checked")
        monkeypatch.setattr("avoidrec.cli.load_corpus", refuse)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be an integer from 1 to ")
        assert "Traceback" not in err

    def test_train_then_eval(self, config_path, tmp_path):
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path),
                     "--out", str(train_out)]) == 0
        ckpt = train_out / "checkpoint.ntck"
        assert ckpt.exists()
        log_rows = (train_out / "training_log.csv").read_text().splitlines()
        assert log_rows[0] == "epoch,train_loss,val_auc,wall_seconds"
        assert len(log_rows) >= 2

        eval_out = tmp_path / "eval"
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(ckpt), "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert set(report["metrics"]) == {"auc", "mrr", "ndcg5", "ndcg10"}
        assert (eval_out / "per_impression.csv").exists()

    def test_skipped_rows_are_reported_by_every_command(self, synth_dir, config_path,
                                                        tmp_path, capsys):
        # One malformed news row and one malformed behaviors row, as stats reports them.
        for name, bad in (("news.tsv", "N-bad\ttoo few columns\n"),
                          ("behaviors.tsv", "not a behaviors row\n")):
            text = (synth_dir / name).read_text(encoding="utf-8")
            (tmp_path / name).write_text(text + bad, encoding="utf-8")
        cfg = json.loads(config_path.read_text())
        cfg.update(news_path=str(tmp_path / "news.tsv"),
                   behaviors_path=str(tmp_path / "behaviors.tsv"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["stats", str(tmp_path / "behaviors.tsv"), "--out", str(tmp_path / "s")]) == 0
        assert "warning: skipped 1 malformed rows\n" in capsys.readouterr().err
        ckpt = str(tmp_path / "train" / "checkpoint.ntck")
        for argv in (["train", "--out", str(tmp_path / "train")],
                     ["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "eval")],
                     ["ablate", "--mode", "full", "--out", str(tmp_path / "ablate")]):
            assert main([argv[0], "--config", str(config), *argv[1:]]) == 0, argv
            assert capsys.readouterr().err == "warning: skipped 2 malformed rows\n", argv

    def test_eval_validation_split_reproduces_best_val_auc(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "train"
        main(["train", "--config", str(config_path), "--out", str(train_out)])
        train_stdout = capsys.readouterr().out
        best = float(train_stdout.split("best val_auc=")[1].split()[0])
        eval_out = tmp_path / "eval_val"
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(train_out / "checkpoint.ntck"),
                     "--split", "validation", "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["metrics"]["auc"] == pytest.approx(best, abs=5e-5)

    def test_eval_corrupt_checkpoint_fails_cleanly(self, config_path, tmp_path, capsys):
        ckpt = tmp_path / "corrupt.ntck"
        ckpt.write_bytes(b"NTCK" + (1000).to_bytes(4, "little") + b"{")
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_eval_refuses_a_checkpoint_with_old_parameter_names(self, config_path, tmp_path,
                                                               capsys):
        # Older layouts held the filter bank as one matrix, user.cnn_w.
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), "--out", str(train_out)]) == 0
        state, meta = load_checkpoint(train_out / "checkpoint.ntck")
        state["user.cnn_w"] = np.concatenate([state.pop("user.cnn_window_w"),
                                              state.pop("user.cnn_cand_w")])
        old = tmp_path / "old.ntck"
        save_checkpoint(old, state, meta=meta)
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(old),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: state mismatch") and "user.cnn_w" in err

    def test_eval_refuses_checkpoint_of_another_model_config(self, config_path, tmp_path,
                                                              capsys):
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), "--out", str(train_out)]) == 0
        cfg = json.loads(config_path.read_text())
        cfg["model"]["grid_d"] = 4
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--config", str(other),
                     "--checkpoint", str(train_out / "checkpoint.ntck"),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "grid_d (checkpoint 5, config 4)" in err
        assert not (tmp_path / "eval").exists()

    def test_eval_takes_the_grid_and_bucket_overrides_of_train(self, config_path, tmp_path,
                                                                capsys):
        flags = ["--grid-d", "4", "--bucket-width", "1800"]
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), *flags,
                     "--out", str(train_out)]) == 0
        best = float(capsys.readouterr().out.split("best val_auc=")[1].split()[0])
        ckpt = str(train_out / "checkpoint.ntck")
        eval_out = tmp_path / "eval"
        assert main(["eval", "--config", str(config_path), "--checkpoint", ckpt, *flags,
                     "--split", "validation", "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["metrics"]["auc"] == pytest.approx(best, abs=5e-5)
        # Without the bucket override the features would be rebucketed.
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path), "--checkpoint", ckpt,
                     "--grid-d", "4", "--out", str(tmp_path / "eval2")]) == 1
        assert "bucketed every 1800 s" in capsys.readouterr().err
        assert not (tmp_path / "eval2").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("flags, field", [
        (["--grid-d", "0"], "grid_d"), (["--grid-d", "-2"], "grid_d"),
        (["--bucket-width", "0"], "bucket_width")])
    def test_bad_override_fails_naming_the_field(self, config_path, tmp_path, capsys,
                                                 command, flags, field):
        extra = ["--checkpoint", str(tmp_path / "none.ntck")] if command == "eval" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path), *extra, *flags,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    def test_train_with_zero_epochs_fails_naming_the_field(self, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text())
        cfg["max_epochs"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: max_epochs")

    def test_train_with_no_scorable_instance_fails_without_a_checkpoint(
            self, synth_dir, config_path, tmp_path, capsys):
        # Every shown id is renamed away from the catalog's.
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text((synth_dir / "behaviors.tsv").read_text(encoding="utf-8")
                             .replace("N0", "GONE"), encoding="utf-8")
        cfg = json.loads(config_path.read_text())
        cfg["behaviors_path"] = str(behaviors)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: none of the ") and "(12 articles)" in err
        assert not (out / "checkpoint.ntck").exists()

    def test_missing_config_fails(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_train_out_that_is_a_file_fails_before_training(self, config_path, tmp_path,
                                                            capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        monkeypatch.setattr("avoidrec.cli.train", lambda *a, **k: pytest.fail("trained"))
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_eval_out_that_is_a_file_fails_before_scoring(self, config_path, tmp_path,
                                                          capsys, monkeypatch):
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), "--out", str(train_out)]) == 0
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        monkeypatch.setattr("avoidrec.cli.evaluate", lambda *a, **k: pytest.fail("scored"))
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(train_out / "checkpoint.ntck"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_train_refuses_a_dtype_no_checkpoint_holds_before_loading(
            self, config_path, tmp_path, capsys, monkeypatch):
        # A checkpoint cannot hold longdouble, so the model config refuses
        # it, and the command fails on the config before any work.
        cfg = json.loads(config_path.read_text())
        cfg["model"]["dtype"] = "longdouble"
        path = tmp_path / "longdouble.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        monkeypatch.setattr("avoidrec.cli.load_corpus", lambda *a, **k: pytest.fail("loaded"))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dtype must be one of") and "'longdouble'" in err
        assert "float64" in err
        assert not out.exists()

    def test_eval_has_no_seed_flag(self, config_path, tmp_path, capsys):
        # Loading the checkpoint overwrites every parameter, so a seed could change no score.
        with pytest.raises(SystemExit):
            main(["eval", "--config", str(config_path), "--checkpoint", "x.ntck",
                  "--seed", "1", "--out", str(tmp_path / "eval")])
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_ablate_emits_three_rows(self, config_path, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        rows = read_csv(out / "ablation.csv")
        assert [r["mode"] for r in rows] == ["only_rel", "only_avoid", "full"]
        for mode in ("only_rel", "only_avoid", "full"):
            assert mode in stdout

    def test_ablate_single_mode(self, config_path, tmp_path):
        out = tmp_path / "ablate1"
        assert main(["ablate", "--config", str(config_path),
                     "--mode", "full", "--out", str(out)]) == 0
        rows = read_csv(out / "ablation.csv")
        assert [r["mode"] for r in rows] == ["full"]

    def test_ablate_refuses_an_empty_test_split_before_training(self, config_path, tmp_path,
                                                                capsys, monkeypatch):
        cfg = json.loads(config_path.read_text())
        cfg["test_fraction"] = 0
        no_test = tmp_path / "no_test.json"
        no_test.write_text(json.dumps(cfg), encoding="utf-8")
        monkeypatch.setattr("avoidrec.cli.train", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(no_test), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: test split is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1,,2", "1,x"])
    def test_ablate_bad_seeds_fail_naming_the_flag(self, config_path, tmp_path, capsys, seeds):
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_path), "--seeds", seeds,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --seeds must be comma-separated integers, got {seeds!r}\n")
        assert not out.exists()

    def test_ablate_checks_every_seed_before_training(self, config_path, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("avoidrec.cli.train", lambda *a, **k: pytest.fail("trained"))
        assert main(["ablate", "--config", str(config_path), "--seeds", "1,-1",
                     "--out", str(tmp_path / "ablate")]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be")
