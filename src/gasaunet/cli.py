"""Command-line pipeline: synth | train | eval | ablate | verify.

Configuration comes from built-in defaults, optionally a JSON config file
(unknown keys rejected), then command-line flags, in that order of
precedence. A flag that sets a config value has that value's dotted path as
its argparse dest: `--iters` sets `train.iters_per_epoch`. Every command is
deterministic given config + seed; outputs go to the --out directory. Exit
codes: 0 ok, 1 usage, 2 runtime failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from . import verify as verify_mod
from .backbone import build_model, count_model_params, make_backbone_config
from .errors import GasaUNetError, VersionMismatch
from .gasa import PE_MODES
from .inference import SlidingWindowConfig, evaluate_split
from .metrics import kits_hec
from .phantom import PhantomSpec, load_manifest, make_dataset
from .tensor import Rng
from .training import (
    TrainConfig,
    eval_fingerprint,
    load_checkpoint,
    model_from_checkpoint,
    prepared_from_manifest_path,
    preprocess_manifest,
    save_checkpoint,
    train,
)


class UsageError(Exception):
    pass


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "phantom": {
        "size": 32,
        "classes": 3,
        "cases": 20,
        "test_cases": 4,
        "noise_sigma": 0.1,
    },
    "model": {
        "variant": "base",
        "gasa": True,
        "pe": "after",
        "heads": 5,
        "dmodel": 25,
        "layernorm": False,
        "dropout": 0.5,
        "stage_channels": [8, 16, 32],
    },
    "train": {
        "epochs": 50,
        "iters_per_epoch": 20,
        "batch": 2,
        "patch": 16,
        "lr0": 0.01,
        "momentum": 0.99,
        "poly_exponent": 0.9,
    },
    "eval": {
        "tta": False,
        "hec": "none",
        "tau": 1.0,
    },
    "ablate": {
        "epochs": 2,
        "iters_per_epoch": 8,
        "grid": [[2, 10], [5, 25], [10, 50], [20, 100]],
        "pe_modes": ["none", "before", "after"],
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise UsageError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config key {where} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        cfg = _merge(cfg, loaded)

    for dest, value in vars(args).items():
        *sections, key = dest.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        if value is not None and key in node:
            node[key] = value
    return cfg


def _maybe_print_config(args, cfg) -> bool:
    if getattr(args, "print_config", False):
        print(json.dumps(cfg, sort_keys=True, indent=1))
        return True
    return False


def _out_dir(args) -> Path:
    if not getattr(args, "out", None):
        raise UsageError("--out is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model_config_from(cfg: dict, patch: tuple[int, int, int], num_classes: int):
    m = cfg["model"]
    return make_backbone_config(
        in_channels=1,
        num_classes=num_classes,
        patch_size=patch,
        stage_channels=tuple(m["stage_channels"]),
        gasa_enabled=bool(m["gasa"]),
        variant=m["variant"],
        d_model=m["dmodel"],
        heads=m["heads"],
        pe_mode=m["pe"],
        use_layer_norm=bool(m["layernorm"]),
        dropout_p=m["dropout"],
    )


def _train_config_from(cfg: dict, schedule: dict) -> TrainConfig:
    """The train settings, with epochs and iterations from `schedule` (section train or ablate)."""
    t = cfg["train"]
    tcfg = TrainConfig(
        lr0=t["lr0"],
        momentum=t["momentum"],
        epochs=schedule["epochs"],
        iters_per_epoch=schedule["iters_per_epoch"],
        batch=t["batch"],
        patch_size=(t["patch"],) * 3,
        seed=cfg["seed"],
        poly_exponent=t["poly_exponent"],
    )
    tcfg.validate()
    return tcfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    out = _out_dir(args)
    p = cfg["phantom"]
    spec = PhantomSpec(
        size=(p["size"],) * 3,
        num_classes=p["classes"],
        noise_sigma=p["noise_sigma"],
        seed=cfg["seed"],
    )
    manifest = make_dataset(spec, p["cases"], out, n_test=p["test_cases"])
    print(f"wrote {len(manifest['cases'])} cases to {out}")
    print(f"split: {len(manifest['split']['train'])} train / {len(manifest['split']['test'])} test")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    out = _out_dir(args)
    tcfg = _train_config_from(cfg, cfg["train"])
    patch = tcfg.patch_size
    data = prepared_from_manifest_path(args.data, patch)
    model_cfg = _model_config_from(cfg, patch, data.num_classes)
    model = build_model(model_cfg, Rng(cfg["seed"]))
    print(f"training {model_cfg.variant} model, {count_model_params(model_cfg)} parameters, "
          f"{tcfg.epochs} epochs x {tcfg.iters_per_epoch} iters")
    log_path = out / "train_log.jsonl"
    log_path.unlink(missing_ok=True)
    ckpt, log = train(model, data, tcfg, log_path=log_path)
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt, ckpt_path)
    print(f"epoch {log[0]['epoch']}: loss {log[0]['loss']:.4f}  ->  "
          f"epoch {log[-1]['epoch']}: loss {log[-1]['loss']:.4f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"log: {log_path}")
    return 0


def _format_table(summary: dict) -> str:
    names = list(summary["dice"].keys())
    rows = [
        ["metric"] + names + ["mean"],
        ["Dice"] + [_fmt(summary["dice"][n]) for n in names] + [_fmt(summary["mean_dice"])],
        ["NSD"] + [_fmt(summary["nsd"][n]) for n in names] + [_fmt(summary["mean_nsd"])],
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.2f}"


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    out = _out_dir(args)
    ckpts = [load_checkpoint(p) for p in args.ckpt]
    models = [model_from_checkpoint(c) for c in ckpts]
    # an ensemble is preprocessed once, so its members must agree on how
    fingerprints = [eval_fingerprint(c, p) for c, p in zip(ckpts, args.ckpt)]
    for path, fingerprint in zip(args.ckpt[1:], fingerprints[1:]):
        for field, value, first in zip(("patch_size", "stats", "spacing"), fingerprint, fingerprints[0]):
            if value != first:
                raise VersionMismatch(
                    f"{path}: checkpoint extra field {field!r} is {value}, but {args.ckpt[0]} has {first}"
                )
    patch, stats, spacing = fingerprints[0]
    manifest, root = load_manifest(args.data)
    # preprocess with the training-time fingerprint, not one recomputed here
    data = preprocess_manifest(manifest, root, patch, stats=stats, spacing=spacing)

    swc = SlidingWindowConfig(patch_size=patch, tta_mirror=bool(cfg["eval"]["tta"]))
    hec = kits_hec(data.num_classes) if cfg["eval"]["hec"] == "kits" else None
    result = evaluate_split(
        [m.predict_logits for m in models], data, swc, cfg["eval"]["tau"], hec=hec
    )

    scaled = {
        "cases": [
            {
                "dice": {k: None if v is None else 100.0 * v for k, v in c["dice"].items()},
                "nsd": {k: None if v is None else 100.0 * v for k, v in c["nsd"].items()},
            }
            for c in result["cases"]
        ],
        "summary": result["report"].to_dict(scale=100.0),
        "tta": bool(cfg["eval"]["tta"]),
        "tau": cfg["eval"]["tau"],
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(scaled, sort_keys=True, indent=1) + "\n")
    print(_format_table(scaled["summary"]))
    print(f"report: {report_path}")
    return 0


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    out = _out_dir(args)
    tcfg = _train_config_from(cfg, cfg["ablate"])
    patch = tcfg.patch_size
    data = prepared_from_manifest_path(args.data, patch)

    cells = []
    for heads, dmodel in cfg["ablate"]["grid"]:
        for pe in cfg["ablate"]["pe_modes"]:
            cells.append((int(heads), int(dmodel), pe))

    results = []
    for heads, dmodel, pe in cells:
        cell_name = f"h{heads}_d{dmodel}_pe-{pe}"
        cell_path = out / f"{cell_name}.json"
        if cell_path.exists():
            results.append(json.loads(cell_path.read_text()))
            print(f"{cell_name}: cached")
            continue
        run_cfg = copy.deepcopy(cfg)
        run_cfg["model"]["heads"] = heads
        run_cfg["model"]["dmodel"] = dmodel
        run_cfg["model"]["pe"] = pe
        model_cfg = _model_config_from(run_cfg, patch, data.num_classes)
        model = build_model(model_cfg, Rng(cfg["seed"]))
        train(model, data, tcfg)
        swc = SlidingWindowConfig(patch_size=patch)
        res = evaluate_split(model.predict_logits, data, swc, cfg["eval"]["tau"])
        entry = {
            "heads": heads,
            "dmodel": dmodel,
            "pe": pe,
            "dice": None if res["report"].mean_dice is None else 100.0 * res["report"].mean_dice,
            "params": count_model_params(model_cfg),
        }
        cell_path.write_text(json.dumps(entry, sort_keys=True) + "\n")
        results.append(entry)
        print(f"{cell_name}: dice {_fmt(entry['dice'])} params {entry['params']}")

    table_path = out / "ablation.json"
    table_path.write_text(json.dumps(results, sort_keys=True, indent=1) + "\n")
    header = f"{'heads/dim':>10}  {'pe':>7}  {'dice':>7}  {'params':>9}"
    print(header)
    for e in results:
        print(f"{e['heads']}/{e['dmodel']:>7}  {e['pe']:>7}  {_fmt(e['dice']):>7}  {e['params']:>9}")
    print(f"table: {table_path}")
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_all(perturb_gradients=getattr(args, "perturb_gradient", False))
    all_ok = True
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        detail = {k: v for k, v in r.items() if k not in ("name", "passed")}
        print(f"[{status}] {r['name']}: {json.dumps(detail, sort_keys=True)}")
        all_ok = all_ok and r["passed"]
    print(json.dumps({"passed": all_ok, "checks": results}, sort_keys=True))
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'on', 'off')")
    return text == "on"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--print-config", action="store_true", help="print resolved config and exit")


def build_parser() -> _Parser:
    parser = _Parser(prog="gasaunet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic phantom dataset")
    _add_common(p)
    p.add_argument("--cases", dest="phantom.cases", type=int)
    p.add_argument("--test-cases", dest="phantom.test_cases", type=int)
    p.add_argument("--classes", dest="phantom.classes", type=int)
    p.add_argument("--size", dest="phantom.size", type=int)
    p.add_argument("--noise", dest="phantom.noise_sigma", type=float)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="preprocess and train")
    _add_common(p)
    p.add_argument("--data", required=False, help="dataset directory or manifest path")
    p.add_argument("--variant", dest="model.variant", choices=["base", "large"])
    p.add_argument("--gasa", dest="model.gasa", type=_on_off, metavar="{on,off}")
    p.add_argument("--pe", dest="model.pe", choices=list(PE_MODES))
    p.add_argument("--heads", dest="model.heads", type=int)
    p.add_argument("--dmodel", dest="model.dmodel", type=int)
    p.add_argument("--layernorm", dest="model.layernorm", type=_on_off, metavar="{on,off}")
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--iters", dest="train.iters_per_epoch", type=int)
    p.add_argument("--batch", dest="train.batch", type=int)
    p.add_argument("--patch", dest="train.patch", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="sliding-window evaluation of checkpoint(s)")
    _add_common(p)
    p.add_argument("--ckpt", nargs="+", help="checkpoint path(s); several are softmax-averaged")
    p.add_argument("--data", required=False)
    p.add_argument("--tta", dest="eval.tta", action="store_const", const=True)
    p.add_argument("--hec", dest="eval.hec", choices=["none", "kits"])
    p.add_argument("--tau", dest="eval.tau", type=float)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="heads/dim x positional-embedding sweep")
    _add_common(p)
    p.add_argument("--data", required=False)
    p.add_argument("--epochs", dest="ablate.epochs", type=int)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify", help="run the self-check oracles")
    p.add_argument("--perturb-gradient", dest="perturb_gradient", action="store_true",
                   help="inject a gradient fault to prove the detector works")
    p.set_defaults(fn=cmd_verify)

    return parser


def _require(args, cfg_names: list[str]) -> None:
    for name in cfg_names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.fn in (cmd_train, cmd_ablate) and not getattr(args, "print_config", False):
            _require(args, ["data"])
        if args.fn is cmd_eval and not getattr(args, "print_config", False):
            _require(args, ["ckpt", "data"])
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GasaUNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
