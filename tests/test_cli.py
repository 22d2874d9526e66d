import json
import struct
import zlib

import numpy as np
import pytest

from gasaunet.backbone import build_model, make_backbone_config
from gasaunet.cli import main
from gasaunet.tensor import Rng
from gasaunet.training import CKPT_MAGIC, CKPT_VERSION, checkpoint_from_model, save_checkpoint


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    code = run(
        ["synth", "--out", str(root), "--cases", "5", "--test-cases", "2",
         "--size", "16", "--seed", "3"]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run(
        ["train", "--data", str(dataset), "--out", str(out), "--epochs", "2",
         "--iters", "3", "--patch", "8", "--dmodel", "4", "--heads", "2", "--seed", "3"]
    )
    assert code == 0
    return out


def test_synth_writes_manifest(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert len(manifest["cases"]) == 5
    assert manifest["split"] == {"train": [0, 1, 2], "test": [3, 4]}


def test_synth_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run(["synth", "--out", str(tmp_path / sub), "--cases", "2",
                    "--test-cases", "0", "--size", "16", "--seed", "7"]) == 0
    for name in ("case_000.gvol", "case_001.gvol", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_print_config(capsys):
    assert run(["train", "--print-config", "--pe", "before", "--heads", "2"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["model"]["pe"] == "before"
    assert cfg["model"]["heads"] == 2
    assert cfg["train"]["epochs"] == 50


@pytest.mark.parametrize("command, flag, path, value", [
    ("synth", ["--seed", "5"], ("seed",), 5),
    ("synth", ["--cases", "7"], ("phantom", "cases"), 7),
    ("synth", ["--test-cases", "3"], ("phantom", "test_cases"), 3),
    ("synth", ["--classes", "4"], ("phantom", "classes"), 4),
    ("synth", ["--size", "20"], ("phantom", "size"), 20),
    ("synth", ["--noise", "0.3"], ("phantom", "noise_sigma"), 0.3),
    ("train", ["--variant", "large"], ("model", "variant"), "large"),
    ("train", ["--gasa", "off"], ("model", "gasa"), False),
    ("train", ["--pe", "none"], ("model", "pe"), "none"),
    ("train", ["--heads", "3"], ("model", "heads"), 3),
    ("train", ["--dmodel", "9"], ("model", "dmodel"), 9),
    ("train", ["--layernorm", "on"], ("model", "layernorm"), True),
    ("train", ["--epochs", "4"], ("train", "epochs"), 4),
    ("train", ["--iters", "6"], ("train", "iters_per_epoch"), 6),
    ("train", ["--batch", "3"], ("train", "batch"), 3),
    ("train", ["--patch", "24"], ("train", "patch"), 24),
    ("eval", ["--tta"], ("eval", "tta"), True),
    ("eval", ["--hec", "kits"], ("eval", "hec"), "kits"),
    ("eval", ["--tau", "2.5"], ("eval", "tau"), 2.5),
    ("ablate", ["--epochs", "3"], ("ablate", "epochs"), 3),
])
def test_each_flag_sets_its_config_path(capsys, command, flag, path, value):
    assert run([command, "--print-config"]) == 0
    expected = json.loads(capsys.readouterr().out)
    node = expected
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] != value
    node[path[-1]] = value
    assert run([command, "--print-config"] + flag) == 0
    assert json.loads(capsys.readouterr().out) == expected


def test_config_file_values_stay_without_their_flags(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"gasa": False, "layernorm": True}, "eval": {"tta": True}}))
    assert run(["eval", "--print-config", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["eval"]["tta"] is True
    assert run(["train", "--print-config", "--config", str(cfg_path), "--gasa", "on", "--layernorm", "off"]) == 0
    model = json.loads(capsys.readouterr().out)["model"]
    assert model["gasa"] is True and model["layernorm"] is False
    assert run(["train", "--print-config", "--gasa", "maybe"]) == 1


def test_config_file_merges_and_flags_win(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"heads": 2, "dmodel": 10}, "seed": 9}))
    assert run(["train", "--print-config", "--config", str(cfg_path), "--dmodel", "4"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["seed"] == 9
    assert cfg["model"]["heads"] == 2
    assert cfg["model"]["dmodel"] == 4  # flag beats file


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"modle": {"heads": 2}}))
    assert run(["train", "--print-config", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("override, message", [
    ({"train": {"batch": "2"}}, "train.batch must be an integer"),
    ({"train": {"batch": 2.0}}, "train.batch must be an integer"),
    ({"train": {"batch": True}}, "train.batch must be an integer"),
    ({"train": {"lr0": False}}, "train.lr0 must be a number"),
    ({"model": {"gasa": 1}}, "model.gasa must be a boolean"),
    ({"model": {"stage_channels": 8}}, "model.stage_channels must be an array"),
    ({"eval": {"hec": None}}, "eval.hec must be a string"),
    ({"phantom": 3}, "phantom must be an object"),
    ({"model": {"stage_channels": ["a", 2]}}, "model.stage_channels[0] must be an integer"),
    ({"model": {"stage_channels": [8, 16.0]}}, "model.stage_channels[1] must be an integer"),
    ({"ablate": {"grid": [2]}}, "ablate.grid[0] must be an array"),
    ({"ablate": {"grid": [[2, 10], [2, "x"]]}}, "ablate.grid[1][1] must be an integer"),
    ({"ablate": {"grid": [[2]]}}, "ablate.grid[0] must be an array of 2 elements"),
    ({"ablate": {"grid": [[2, 10, 3]]}}, "ablate.grid[0] must be an array of 2 elements"),
    ({"ablate": {"pe_modes": ["none", None]}}, "ablate.pe_modes[1] must be a string"),
    ({"train": {"lr0": float("nan")}}, "train.lr0 must be a finite number"),
    ({"eval": {"tau": float("inf")}}, "eval.tau must be a finite number"),
    ({"model": {"dropout": float("-inf")}}, "model.dropout must be a finite number"),
])
def test_config_value_of_another_json_type_rejected(tmp_path, capsys, override, message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(override))
    assert run(["train", "--print-config", "--config", str(cfg_path)]) == 1
    assert f"usage error: config key {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["synth", "--size", "16", "--cases", "2", "--test-cases", "1", "--noise", "nan"], "phantom.noise_sigma"),
    (["eval", "--print-config", "--tau", "inf"], "eval.tau"),
    (["eval", "--print-config", "--tau", "nan"], "eval.tau"),
])
def test_non_finite_flag_value_rejected(tmp_path, capsys, argv, key):
    assert run(argv + (["--out", str(tmp_path / "out")] if argv[0] == "synth" else [])) == 1
    assert f"usage error: config key {key} must be a finite number\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_integer_where_the_default_is_a_number_accepted(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"lr0": 1}, "model": {"dropout": 0}}))
    assert run(["train", "--print-config", "--config", str(cfg_path)]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["train"]["lr0"] == 1 and cfg["model"]["dropout"] == 0


def test_usage_errors_exit_1():
    assert run(["train"]) == 1
    assert run(["eval", "--data", "somewhere"]) == 1


def test_eval_malformed_checkpoint_header_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    blob = json.dumps({"epoch": 0}).encode()
    ckpt.write_bytes(CKPT_MAGIC + struct.pack("<IQI", CKPT_VERSION, len(blob), zlib.crc32(blob)) + blob)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "'tensors'" in err


def test_eval_checkpoint_with_a_flipped_header_digit_exits_2(trained, dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    raw = (trained / "model.ckpt").read_bytes()
    assert raw.count(b'"epoch": 2') == 1
    ckpt.write_bytes(raw.replace(b'"epoch": 2', b'"epoch": 3'))
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(dataset), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: checkpoint header does not match its CRC-32" in err


def test_eval_checkpoint_with_a_shape_too_large_for_int64_exits_2(tmp_path, capsys):
    cfg = make_backbone_config(1, 3, (8, 8, 8), stage_channels=(2, 4, 8), d_model=2, heads=1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(cfg, Rng(0)), {}, 0, Rng(0)), ckpt)
    raw = ckpt.read_bytes()
    start = len(CKPT_MAGIC) + 16
    _, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
    header = json.loads(raw[start : start + hlen])
    header["tensors"][0]["shape"] = [2**32, 2**32]
    blob = json.dumps(header).encode()
    prefix = struct.pack("<IQI", CKPT_VERSION, len(blob), zlib.crc32(blob))
    ckpt.write_bytes(CKPT_MAGIC + prefix + blob + raw[start + hlen :])
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"tensor {header['tensors'][0]['name']} needs payload bytes" in err


@pytest.mark.parametrize("extra, field", [
    ({}, "patch_size"),
    ({"patch_size": [8, 8, 8]}, "stats"),
    ({"patch_size": [8, 8, 8], "stats": {"p_lo": 0.0, "p_hi": 1.0, "mean": 0.0, "std": 1.0}}, "spacing"),
    ({"patch_size": [8, 8], "stats": {}, "spacing": [1.0, 1.0, 1.0]}, "patch_size"),
    ({"patch_size": [8, 8, 8], "stats": {"p_lo": 0.0}, "spacing": [1.0, 1.0, 1.0]}, "stats"),
    ({"patch_size": [8, 8, 8], "stats": {"p_lo": 0.0, "p_hi": 1.0, "mean": float("nan"), "std": 1.0},
      "spacing": [1.0, 1.0, 1.0]}, "stats"),
    ({"patch_size": [8, 8, 8], "stats": {"p_lo": 0.0, "p_hi": 1.0, "mean": 0.0, "std": 0},
      "spacing": [1.0, 1.0, 1.0]}, "stats"),
    ({"patch_size": [8, 8, 8], "stats": {"p_lo": 0.0, "p_hi": 1.0, "mean": 0.0, "std": 1.0},
      "spacing": [1.0, float("inf"), 1.0]}, "spacing"),
])
def test_eval_checkpoint_without_training_fingerprint_exits_2(tmp_path, capsys, extra, field):
    cfg = make_backbone_config(1, 3, (8, 8, 8), stage_channels=(2, 4, 8), d_model=2, heads=1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(cfg, Rng(0)), {}, 0, Rng(0), extra), ckpt)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"extra field {field!r}" in err


@pytest.mark.parametrize("entry, name, why", [
    (0, "x.enc0.0.w", "starts with neither 'p.' nor 'm.'"),
    (1, "p.enc0.0.w", "is stored twice"),
])
def test_eval_checkpoint_with_a_bad_tensor_name_exits_2(tmp_path, capsys, entry, name, why):
    cfg = make_backbone_config(1, 3, (8, 8, 8), stage_channels=(2, 4, 8), d_model=2, heads=1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(cfg, Rng(0)), {}, 0, Rng(0)), ckpt)
    raw = ckpt.read_bytes()
    start = len(CKPT_MAGIC) + 16
    _, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
    header = json.loads(raw[start : start + hlen])
    header["tensors"][entry]["name"] = name
    blob = json.dumps(header).encode()
    prefix = struct.pack("<IQI", CKPT_VERSION, len(blob), zlib.crc32(blob))
    ckpt.write_bytes(CKPT_MAGIC + prefix + blob + raw[start + hlen :])
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: checkpoint tensor table entry {entry} names tensor {name!r}, which {why}" in err


@pytest.mark.parametrize("field, change", [
    ("patch_size", {"patch_size": [16, 16, 16]}),
    ("stats", {"stats": {"p_lo": 0.0, "p_hi": 2.0, "mean": 0.0, "std": 1.0}}),
    ("spacing", {"spacing": [1.0, 1.0, 2.0]}),
])
def test_eval_ensemble_with_mismatched_fingerprints_exits_2_naming_both_files(tmp_path, capsys, field, change):
    cfg = make_backbone_config(1, 3, (8, 8, 8), stage_channels=(2, 4, 8), d_model=2, heads=1)
    model = build_model(cfg, Rng(0))
    extra = {"patch_size": [8, 8, 8], "stats": {"p_lo": 0.0, "p_hi": 1.0, "mean": 0.0, "std": 1.0},
             "spacing": [1.0, 1.0, 1.0]}
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(checkpoint_from_model(model, {}, 0, Rng(0), extra), first)
    save_checkpoint(checkpoint_from_model(model, {}, 0, Rng(0), {**extra, **change}), second)
    argv = ["eval", "--ckpt", str(first), str(second), "--data", str(tmp_path), "--out", str(tmp_path / "eval")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err and f"extra field {field!r}" in err


@pytest.mark.parametrize("flag", [["--batch", "0"], ["--iters", "0"], ["--patch", "0"]])
def test_train_rejects_empty_batches_and_epochs(dataset, tmp_path, capsys, flag):
    out = tmp_path / "run"
    assert run(["train", "--data", str(dataset), "--out", str(out), "--epochs", "1"] + flag) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists() and not (out / "train_log.jsonl").exists()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_with_a_non_finite_gradient_exits_2_naming_the_parameter(dataset, tmp_path, capsys, monkeypatch):
    from gasaunet import tensor as T
    from gasaunet import training

    loss_fn = training.soft_dice_ce_loss

    def poisoned(logits, onehot):
        # an infinite gradient for the logits, and so for every parameter
        loss = loss_fn(logits, onehot)
        return T._node(loss.data, (loss,), lambda g: loss.accumulate_grad(g * np.inf))

    monkeypatch.setattr(training, "soft_dice_ce_loss", poisoned)
    out = tmp_path / "run"
    assert run(["train", "--data", str(dataset), "--out", str(out), "--epochs", "1", "--iters", "1",
                "--patch", "8", "--dmodel", "4", "--heads", "2"]) == 2
    assert "gradient of parameter enc0.0.w is not finite" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("edit, field", [
    pytest.param(lambda m: m["split"]["test"].append(5), "split.test", id="split.test"),
    pytest.param(lambda m: m["split"].update(train="0"), "split.train", id="split.train"),
    pytest.param(lambda m: m.pop("spec"), "spec.num_classes", id="no-spec"),
    pytest.param(lambda m: m["spec"].update(num_classes=1), "spec.num_classes", id="one-class"),
    pytest.param(lambda m: m.pop("cases"), "cases", id="cases"),
    pytest.param(lambda m: m["cases"][1].pop("labels"), "cases[1].labels", id="cases[1].labels"),
    pytest.param(lambda m: m["cases"].__setitem__(0, "case_000.gvol"), "cases[0].image", id="cases[0].image"),
])
def test_malformed_manifest_exits_2_naming_file_and_field(dataset, tmp_path, capsys, edit, field):
    manifest = json.loads((dataset / "manifest.json").read_text())
    edit(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"field {field!r}" in err


def test_manifest_that_is_not_json_exits_2_naming_file(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text('{"cases": [] "spec": {}}')
    assert run(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "not valid JSON" in err


def test_train_outputs(trained):
    assert (trained / "model.ckpt").exists()
    lines = (trained / "train_log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    entry = json.loads(lines[0])
    assert set(entry) == {"epoch", "lr", "loss", "seconds"}
    assert entry["lr"] == 0.01


def test_eval_report(trained, dataset, tmp_path):
    out = tmp_path / "eval"
    code = run(["eval", "--ckpt", str(trained / "model.ckpt"), "--data", str(dataset),
                "--out", str(out), "--hec", "kits", "--tta"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tta"] is True
    for section in ("dice", "nsd"):
        for v in report["summary"][section].values():
            assert v is None or 0.0 <= v <= 100.0
    assert "organ_and_masses" in report["summary"]["dice"]
    assert "tumor" in report["summary"]["dice"]


def test_eval_checkpoint_ensemble(trained, dataset, tmp_path):
    single = tmp_path / "single"
    double = tmp_path / "double"
    ckpt = str(trained / "model.ckpt")
    assert run(["eval", "--ckpt", ckpt, "--data", str(dataset), "--out", str(single)]) == 0
    assert run(["eval", "--ckpt", ckpt, ckpt, "--data", str(dataset), "--out", str(double)]) == 0
    a = json.loads((single / "report.json").read_text())
    b = json.loads((double / "report.json").read_text())
    assert a["summary"] == b["summary"]  # averaging a checkpoint with itself changes nothing


def test_train_gasa_off_and_variant_large(dataset, tmp_path):
    out = tmp_path / "off"
    code = run(["train", "--data", str(dataset), "--out", str(out), "--epochs", "1",
                "--iters", "2", "--patch", "8", "--gasa", "off", "--seed", "1"])
    assert code == 0
    out2 = tmp_path / "large"
    code = run(["train", "--data", str(dataset), "--out", str(out2), "--epochs", "1",
                "--iters", "2", "--patch", "8", "--dmodel", "4", "--heads", "2",
                "--variant", "large", "--seed", "1"])
    assert code == 0


def test_ablate_runs_and_resumes(dataset, tmp_path, capsys):
    out = tmp_path / "ablate"
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({
        "ablate": {"grid": [[1, 2], [2, 4]], "pe_modes": ["none", "after"],
                   "epochs": 1, "iters_per_epoch": 2},
        "train": {"patch": 8},
    }))
    code = run(["ablate", "--data", str(dataset), "--out", str(out),
                "--config", str(cfg_path), "--seed", "2"])
    assert code == 0
    capsys.readouterr()
    table = json.loads((out / "ablation.json").read_text())
    assert len(table) == 4
    # rerun: every cell is cached
    code = run(["ablate", "--data", str(dataset), "--out", str(out),
                "--config", str(cfg_path), "--seed", "2"])
    assert code == 0
    assert capsys.readouterr().out.count("cached") == 4


def test_ablate_trains_with_the_configured_optimizer(dataset, tmp_path, monkeypatch):
    from gasaunet import cli

    seen = []
    real_train = cli.train

    def recording_train(model, data, tcfg, **kw):
        seen.append(tcfg)
        return real_train(model, data, tcfg, **kw)

    monkeypatch.setattr(cli, "train", recording_train)
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({
        "ablate": {"grid": [[1, 2]], "pe_modes": ["none"], "epochs": 1, "iters_per_epoch": 1},
        "train": {"patch": 8, "lr0": 0.5, "momentum": 0.5, "poly_exponent": 2.0},
    }))
    assert run(["ablate", "--data", str(dataset), "--out", str(tmp_path / "ablate"),
                "--config", str(cfg_path)]) == 0
    [tcfg] = seen
    assert (tcfg.lr0, tcfg.momentum, tcfg.poly_exponent) == (0.5, 0.5, 2.0)
    assert (tcfg.epochs, tcfg.iters_per_epoch, tcfg.patch_size) == (1, 1, (8, 8, 8))


def test_verify_exit_codes(capsys):
    assert run(["verify"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [c["name"] for c in report["checks"]] == [
        "gradient_oracle", "nsd_oracle", "interpolation_oracle", "sliding_window_oracle", "inference_precision",
        "training_precision", "training_processes", "tta_processes", "conv_blas",
    ]
    assert run(["verify", "--perturb-gradient"]) == 3


@pytest.mark.parametrize("argv, missing", [
    (["synth"], "--out"),
    (["train"], "--data"),
    (["train", "--data", "d"], "--out"),
    (["eval"], "--ckpt"),
    (["eval", "--data", "d"], "--ckpt"),
    (["eval", "--ckpt", "c"], "--data"),
    (["eval", "--ckpt", "c", "--data", "d"], "--out"),
    (["ablate"], "--data"),
    (["ablate", "--data", "d"], "--out"),
])
def test_a_missing_path_exits_1_naming_it_and_print_config_needs_none(tmp_path, capsys, monkeypatch, argv, missing):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(argv) == 1
    assert capsys.readouterr().err == f"usage error: {missing} is required\n"
    # --data and --ckpt are checked before the config file is read, --out after it
    assert run(argv + ["--config", str(bad)]) == 1
    err = capsys.readouterr().err
    if missing == "--out":
        assert err.startswith(f"usage error: cannot read config {bad}: ")
    else:
        assert err == f"usage error: {missing} is required\n"
    assert run(argv + ["--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("flag", [["--config", "run.json"], ["--out", "run"], ["--print-config"]])
def test_verify_takes_no_config_out_or_print_config(capsys, flag):
    assert run(["verify"] + flag) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("classes", [2, 4])
def test_eval_against_a_dataset_with_another_class_count_exits_2(trained, tmp_path, capsys, classes):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--cases", "2", "--test-cases", "1", "--size", "16",
                "--classes", str(classes)]) == 0
    capsys.readouterr()
    ckpt = trained / "model.ckpt"
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: checkpoint predicts 3 classes, but the dataset {data} has {classes}\n")
    assert not (tmp_path / "eval" / "report.json").exists()


def test_ablate_rerun_with_other_settings_exits_1_before_training(dataset, tmp_path, capsys, monkeypatch):
    from gasaunet import cli

    out = tmp_path / "ablate"
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({
        "ablate": {"grid": [[1, 2]], "pe_modes": ["none", "after"], "epochs": 1, "iters_per_epoch": 1},
        "train": {"patch": 8},
    }))
    argv = ["ablate", "--out", str(out), "--config", str(cfg_path)]
    assert run(argv + ["--data", str(dataset)]) == 0
    cell = out / "h1_d2_pe-none.json"
    stored = cell.read_text()
    assert json.loads(stored)["result"] == json.loads((out / "ablation.json").read_text())[0]

    def no_training(*args, **kw):
        raise AssertionError("a cell was trained")

    monkeypatch.setattr(cli, "train", no_training)
    other = tmp_path / "other"
    other.mkdir()
    (other / "manifest.json").write_text((dataset / "manifest.json").read_text())
    for extra, key in [(["--epochs", "3"], "config.ablate.epochs"), (["--seed", "9"], "config.seed"),
                       (["--data", str(other)], "data")]:
        capsys.readouterr()
        assert run(argv + (extra if extra[0] == "--data" else extra + ["--data", str(dataset)])) == 1
        assert capsys.readouterr().err == (f"usage error: {cell}: cached cell does not record this run's {key}; "
                                           "delete it or choose another --out\n")
        assert cell.read_text() == stored

    # a cell file without the record, as earlier versions wrote it, is not reused either
    cell.write_text(json.dumps(json.loads(stored)["result"]) + "\n")
    assert run(argv + ["--data", str(dataset)]) == 1
    assert f"{cell}: cached cell does not record this run's config;" in capsys.readouterr().err


@pytest.mark.parametrize("widths", [[0, 16, 32], [-4, 16, 32]])
def test_train_with_a_stage_width_below_1_exits_2(dataset, tmp_path, capsys, widths):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"model": {"stage_channels": widths}}))
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg_path), "--data", str(dataset), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: stage_channels must be integers >= 1, got {tuple(widths)}\n"
    assert not list(out.iterdir())


def test_synth_with_a_negative_noise_exits_2(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["synth", "--out", str(out), "--size", "16", "--cases", "2", "--test-cases", "1", "--noise", "-1"]) == 2
    assert "noise_sigma -1.0" in capsys.readouterr().err
    assert not list(out.iterdir())


def _no_training(*args, **kw):
    raise AssertionError("a cell was trained")


@pytest.mark.parametrize("sweep, message", [
    ({"grid": [[2, 10], [3, 10]]}, "d_model 10 must be a positive multiple of heads 3"),
    ({"grid": [[2, 10]], "pe_modes": ["none", "sideways"]}, "pe_mode must be one of"),
])
def test_ablate_with_a_bad_cell_exits_2_before_any_training(dataset, tmp_path, capsys, monkeypatch, sweep, message):
    from gasaunet import cli

    monkeypatch.setattr(cli, "train", _no_training)
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({"ablate": {**sweep, "epochs": 1, "iters_per_epoch": 1}, "train": {"patch": 8}}))
    out = tmp_path / "ablate"
    assert run(["ablate", "--data", str(dataset), "--out", str(out), "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.iterdir())


def test_ablate_cached_cell_that_is_not_json_exits_2_naming_it(dataset, tmp_path, capsys, monkeypatch):
    from gasaunet import cli

    monkeypatch.setattr(cli, "train", _no_training)
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({"ablate": {"grid": [[1, 2]], "pe_modes": ["none"]}, "train": {"patch": 8}}))
    out = tmp_path / "ablate"
    out.mkdir()
    cell = out / "h1_d2_pe-none.json"
    argv = ["ablate", "--data", str(dataset), "--out", str(out), "--config", str(cfg_path)]
    cell.write_text("not json")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cell}: cached cell is not valid JSON (")
    cell.write_text("[]")   # JSON, but no record of the run
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {cell}: cached cell does not record this run's config")


def test_train_and_each_ablate_cell_build_one_model(dataset, tmp_path, monkeypatch):
    from gasaunet import backbone, cli

    built = []

    def counted(build):
        def build_and_count(*args, **kw):
            built.append(args[0])
            return build(*args, **kw)
        return build_and_count

    monkeypatch.setattr(backbone, "build_model", counted(backbone.build_model))
    monkeypatch.setattr(cli, "build_model", counted(cli.build_model))
    assert run(["train", "--data", str(dataset), "--out", str(tmp_path / "run"), "--epochs", "1", "--iters", "1",
                "--patch", "8", "--dmodel", "4", "--heads", "2"]) == 0
    assert len(built) == 1
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({
        "ablate": {"grid": [[1, 2]], "pe_modes": ["none", "after"], "epochs": 1, "iters_per_epoch": 1},
        "train": {"patch": 8},
    }))
    assert run(["ablate", "--data", str(dataset), "--out", str(tmp_path / "ablate"), "--config", str(cfg_path)]) == 0
    assert [cfg.gasa.pe_mode for cfg in built[1:]] == ["none", "after"]
