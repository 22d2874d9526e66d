"""Command-line pipeline: synth | train | eval | ablate | verify.

Configuration comes from built-in defaults, optionally a JSON config file
(unknown keys rejected), then command-line flags, in that order of
precedence. A flag that sets a config value has that value's dotted path as
its argparse dest: `--iters` sets `train.iters_per_epoch`. Every command is
deterministic given config + seed; outputs go to the --out directory. Exit
codes: 0 ok, 1 usage, 2 runtime failure, 3 verification failure. `main`
checks the paths a command needs, resolves the config, answers
--print-config and makes --out, then calls the command; verify takes none
of these.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

from . import verify as verify_mod
from .backbone import build_model, make_backbone_config
from .errors import FormatError, GasaUNetError, ShapeMismatch, VersionMismatch
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


# the JSON types a config value may have, and their name, by the type of its default
_JSON_TYPES = {dict: ((dict,), "an object"), list: ((list,), "an array"), str: ((str,), "a string"),
               bool: ((bool,), "a boolean"), int: ((int,), "an integer"), float: ((int, float), "a number")}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise UsageError(f"unknown config key: {where}")
        out[key] = _checked(value, base[key], where)
    return out


def _checked(value, default, where: str, element: bool = False):
    """`value` if it has the JSON type of `default`, else UsageError naming
    `where`. An object is merged into the default, a number must be finite,
    and each element of an array has the type of the default's first (an
    array element its length too)."""
    kinds, name = _JSON_TYPES[type(default)]
    if type(value) not in kinds:
        raise UsageError(f"config key {where} must be {name}")
    if type(value) is float and not math.isfinite(value):
        raise UsageError(f"config key {where} must be a finite number")
    if isinstance(value, dict):
        return _merge(default, value, where)
    if isinstance(value, list) and element and len(value) != len(default):
        raise UsageError(f"config key {where} must be an array of {len(default)} elements")
    if isinstance(value, list) and default:
        return [_checked(v, default[0], f"{where}[{i}]", True) for i, v in enumerate(value)]
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
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
            node[key] = _checked(value, node[key], dest)
    return cfg


def _model_config_from(m: dict, patch: tuple[int, int, int], num_classes: int):
    """The model config that the `model` section `m` of a run config asks for, sized for patches `patch`."""
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


def _first_difference(want, have, path: str) -> str | None:
    """The dotted path of the first value in `want` that `have` lacks or holds otherwise, else None."""
    if not (isinstance(want, dict) and isinstance(have, dict)):
        return None if want == have else path
    found = (_first_difference(v, have.get(k), f"{path}.{k}".lstrip(".")) for k, v in want.items())
    return next((where for where in found if where is not None), None)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: dict, out: Path) -> int:
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


def cmd_train(args, cfg: dict, out: Path) -> int:
    tcfg = _train_config_from(cfg, cfg["train"])
    patch = tcfg.patch_size
    data = preprocess_manifest(*load_manifest(args.data), patch)
    model_cfg = _model_config_from(cfg["model"], patch, data.num_classes)
    model = build_model(model_cfg, Rng(cfg["seed"]))
    print(f"training {model_cfg.variant} model, {sum(p.size for _, p in model.named_params())} parameters, "
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


def cmd_eval(args, cfg: dict, out: Path) -> int:
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
    classes = manifest["spec"]["num_classes"]
    for path, ckpt in zip(args.ckpt, ckpts):
        if ckpt.backbone.num_classes != classes:
            raise ShapeMismatch(f"{path}: checkpoint predicts {ckpt.backbone.num_classes} classes, "
                                f"but the dataset {args.data} has {classes}")
    # preprocess with the training-time fingerprint, not one recomputed here
    data = preprocess_manifest(manifest, root, patch, stats=stats, spacing=spacing)

    swc = SlidingWindowConfig(patch_size=patch, tta_mirror=bool(cfg["eval"]["tta"]))
    hec = kits_hec(data.num_classes) if cfg["eval"]["hec"] == "kits" else None
    result = evaluate_split(
        [m.predict_logits for m in models], data, swc, cfg["eval"]["tau"], hec=hec
    )

    scaled = {
        "cases": [{metric: {k: None if v is None else 100.0 * v for k, v in c[metric].items()}
                   for metric in ("dice", "nsd")} for c in result["cases"]],
        "summary": result["report"].to_dict(scale=100.0),
        "tta": bool(cfg["eval"]["tta"]),
        "tau": cfg["eval"]["tau"],
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(scaled, sort_keys=True, indent=1) + "\n")
    print(_format_table(scaled["summary"]))
    print(f"report: {report_path}")
    return 0


def cmd_ablate(args, cfg: dict, out: Path) -> int:
    tcfg = _train_config_from(cfg, cfg["ablate"])
    patch = tcfg.patch_size
    sweep = cfg["ablate"]
    cells = [(out / f"h{heads}_d{dmodel}_pe-{pe}.json", heads, dmodel, pe)
             for heads, dmodel in sweep["grid"] for pe in sweep["pe_modes"]]
    # a cell file is reused only if it was made with this config and dataset
    made_with = {"config": cfg, "data": str(Path(args.data).resolve())}
    cached = {}
    for cell_path, *_ in cells:
        if cell_path.exists():
            try:
                stored = json.loads(cell_path.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise FormatError(f"{cell_path}: cached cell is not valid JSON ({exc})") from exc
            key = _first_difference(made_with, stored if isinstance(stored, dict) else {}, "")
            if key is not None:
                raise UsageError(f"{cell_path}: cached cell does not record this run's {key}; "
                                 "delete it or choose another --out")
            cached[cell_path] = stored["result"]
    manifest, root = load_manifest(args.data)
    # every cell's model is configured before the first trains, so a bad cell stops the sweep before any training
    model_cfgs = [_model_config_from({**cfg["model"], "heads": heads, "dmodel": dmodel, "pe": pe}, patch,
                                     manifest["spec"]["num_classes"]) for _, heads, dmodel, pe in cells]
    data = preprocess_manifest(manifest, root, patch)

    results = []
    for (cell_path, heads, dmodel, pe), model_cfg in zip(cells, model_cfgs):
        if cell_path in cached:
            results.append(cached[cell_path])
            print(f"{cell_path.stem}: cached")
            continue
        model = build_model(model_cfg, Rng(cfg["seed"]))
        train(model, data, tcfg)
        swc = SlidingWindowConfig(patch_size=patch)
        res = evaluate_split(model.predict_logits, data, swc, cfg["eval"]["tau"])
        entry = {
            "heads": heads,
            "dmodel": dmodel,
            "pe": pe,
            "dice": None if res["report"].mean_dice is None else 100.0 * res["report"].mean_dice,
            "params": sum(p.size for _, p in model.named_params()),
        }
        cell_path.write_text(json.dumps({**made_with, "result": entry}, sort_keys=True) + "\n")
        results.append(entry)
        print(f"{cell_path.stem}: dice {_fmt(entry['dice'])} params {entry['params']}")

    table_path = out / "ablation.json"
    table_path.write_text(json.dumps(results, sort_keys=True, indent=1) + "\n")
    header = f"{'heads/dim':>10}  {'pe':>7}  {'dice':>7}  {'params':>9}"
    print(header)
    for e in results:
        print(f"{e['heads']}/{e['dmodel']:>7}  {e['pe']:>7}  {_fmt(e['dice']):>7}  {e['params']:>9}")
    print(f"table: {table_path}")
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_all(perturb_gradients=args.perturb_gradient)
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
    p.set_defaults(fn=cmd_synth, needs=[])

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
    p.set_defaults(fn=cmd_train, needs=["data"])

    p = sub.add_parser("eval", help="sliding-window evaluation of checkpoint(s)")
    _add_common(p)
    p.add_argument("--ckpt", nargs="+", help="checkpoint path(s); several are softmax-averaged")
    p.add_argument("--data", required=False)
    p.add_argument("--tta", dest="eval.tta", action="store_const", const=True)
    p.add_argument("--hec", dest="eval.hec", choices=["none", "kits"])
    p.add_argument("--tau", dest="eval.tau", type=float)
    p.set_defaults(fn=cmd_eval, needs=["ckpt", "data"])

    p = sub.add_parser("ablate", help="heads/dim x positional-embedding sweep")
    _add_common(p)
    p.add_argument("--data", required=False)
    p.add_argument("--epochs", dest="ablate.epochs", type=int)
    p.set_defaults(fn=cmd_ablate, needs=["data"])

    p = sub.add_parser("verify", help="run the self-check oracles")
    p.add_argument("--perturb-gradient", dest="perturb_gradient", action="store_true",
                   help="inject a gradient fault to prove the detector works")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.fn is cmd_verify:
            return cmd_verify(args)
        missing = [name for name in args.needs if getattr(args, name) is None]
        if missing and not args.print_config:
            raise UsageError(f"--{missing[0]} is required")
        cfg = resolve_config(args)
        if args.print_config:
            print(json.dumps(cfg, sort_keys=True, indent=1))
            return 0
        if not args.out:
            raise UsageError("--out is required")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.fn(args, cfg, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GasaUNetError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
