"""Command-line front end.

Subcommands: scale, drift, escape, tail, chance, run.  Each is the same
pipeline: flags and a JSON config file (--config; flags override its values)
make an ExperimentConfig, its study makes a ReportBundle, and the bundle
writes the CSV (--out) and JSON (--json) reports.  A subcommand has flags, and
accepts config keys, only for the options its study reads
(experiments.STUDIES); any other flag or key is a configuration error.
Exit codes: 0 success, 1 configuration error (including bad flags), 2 I/O
failure, 3 a --check verification failed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from typing import Optional

from .experiments import PRESETS, STUDIES, ExperimentConfig, resolve_config, run_experiment
from .objectives import EMBEDDING_SCHEMES, WEIGHT_SCHEMES, write_in_place
from .version import __version__


def _comma_list(read, what: str):
    """The type of a flag of comma-separated items, each read by `read`: int()
    for sizes, which never truncates text, or float() for tail parameters."""
    def parse(text: str) -> tuple:
        try:
            return tuple(read(item) for item in text.split(",") if item != "")
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}") from None
    return parse


_sizes = _comma_list(int, "sizes must be comma-separated integers")


# The flag of each ExperimentConfig field and its argparse keywords.
_FLAGS = {
    "n_values": ("--n", {"type": _sizes,
                         "help": "problem size n (scale, escape: comma-separated sizes, e.g. 64,128)"}),
    "preset": ("--preset", {"choices": PRESETS}),
    "s": ("--s", {"type": int, "help": "overlap between the two parts (default 0)"}),
    "alpha": ("--alpha", {"help": "balance fraction, e.g. 1/2"}),
    "weight_scheme": ("--weights", {"choices": WEIGHT_SCHEMES, "help": "weight scheme"}),
    "weight_low": ("--wlo", {"type": int, "help": "uniform weight lower bound (default 1)"}),
    "weight_high": ("--whi", {"type": int, "help": "uniform weight upper bound (default 100)"}),
    "transforms": ("--transforms", {
        "help": "comma pair, e.g. square,square_root "
                "(names: identity, square, square_root, scaled_square_root)"}),
    "embedding": ("--embedding", {"choices": EMBEDDING_SCHEMES, "help": "position layout"}),
    "instance_file": ("--instance", {"help": "JSON instance file; fixes the instance and its size"}),
    "fresh_instances": ("--fresh-instances", {"action": "store_true",
                                              "help": "draw a new instance for every replicate"}),
    "replicates": ("--reps", {"type": int, "help": "replicate count"}),
    "budget": ("--budget", {"type": int, "help": "absolute iteration budget per run"}),
    "budget_multiplier": ("--budget-mult", {"type": float, "help": "budget multiplier (default 20)"}),
    "workers": ("--workers", {"type": int, "help": "parallel worker processes (default 1)"}),
    "exponent": ("--exponent", {"type": int, "help": "large-power exponent (default n^2)"}),
    "r_values": ("--r", {"type": _comma_list(float, "tail parameters r must be comma-separated numbers"),
                         "help": "comma-separated tail parameters (default 1,2,3)"}),
    "delta": ("--delta", {"type": float, "help": "use this drift rate instead of certifying one"}),
    "confidence": ("--alpha-c", {"type": float, "help": "guarantee level in (0,1)"}),
    "level_samples": ("--samples", {"type": int, "help": "Monte-Carlo samples per probe (default 1e6)"}),
    "probes": ("--probes", {"type": int, "help": "number of random probes (default 3)"}),
    "trace_stride": ("--stride", {"type": int, "help": "trace sampling stride (0 = endpoints)"}),
    "states": ("--states", {"type": int, "help": "number of random states to sample"}),
    "mutation_probability": ("--p", {"type": float, "help": "mutation probability override"}),
    "seed": ("--seed", {"type": int, "help": "master seed (default 1)"}),
    "out_csv": ("--out", {"help": "CSV report path"}),
    "out_json": ("--json", {"help": "JSON report path"}),
}
_KIND_FLAGS = {("chance", "n_values"): ("--m", {"type": _sizes, "help": "item count m"})}

# Config-file keys are field names or flag names; "m" and "n" both set the size.
_ALIASES = {flag.lstrip("-").replace("-", "_"): name for name, (flag, _) in _FLAGS.items()}
_ALIASES["m"] = "n_values"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of all six subcommands, built once per process: building it
    costs tens of times what one parse does, and a parse leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Run and verify the (1+1) EA on sums of two transformed linear functions.",
    )
    parser.add_argument("--version", action="version", version=f"driftlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for kind, study in STUDIES.items():
        # Absent flags leave no attribute, so only given options reach the
        # config; no abbreviations, or "--s" on escape would set the seed.
        sub = commands.add_parser(
            kind, help=study.help, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for name in study.fields:
            flag, keywords = _KIND_FLAGS.get((kind, name), _FLAGS[name])
            if name == "states":
                group = sub.add_mutually_exclusive_group()
                group.add_argument("--exhaustive", action="store_true",
                                   help="sweep every non-optimal state (the default)")
                group.add_argument(flag, dest=name, **keywords)
            else:
                sub.add_argument(flag, dest=name, **keywords)
        sub.add_argument("--config", help="JSON config file; flags override its values")
        sub.add_argument("--check", action="store_true", help="exit 3 unless all built-in checks pass")
    return parser


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key written twice is an error."""
    seen: dict = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"config file writes key {key!r} twice")
        seen[key] = value
    return seen


def _merge_options(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    options: dict = {}
    spellings: dict = {}  # field name -> the config file's key for it
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh, object_pairs_hook=_unique_keys)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        if file_cfg.pop("kind", kind) != kind:
            raise ValueError(f"config file is not for {kind}")
        for key, value in file_cfg.items():
            name = _ALIASES.get(key, key)
            if name in spellings:
                raise ValueError(f"config file sets {name} twice, as {spellings[name]!r} and {key!r}")
            spellings[name] = key
            options[name] = value
    flags = vars(args)
    options.update(
        (key, value) for key, value in flags.items() if key not in ("command", "config", "check", "exhaustive")
    )
    if flags.get("exhaustive"):
        options["states"] = None
    try:
        return resolve_config(kind, options)
    except ValueError as exc:  # name each option from the file as the file wrote it
        message = str(exc)
        for name, key in spellings.items():
            message = message.replace(repr(name), repr(key))
        raise ValueError(message) from None


def _check_report_path(path: str) -> None:
    """Raise OSError unless a report can be placed at path: its parent is an
    existing directory and the path itself is not one.  Checked before the
    study runs, so that a mistyped --out/--json does not cost its compute."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), parent)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_report(path: str, text: str) -> None:
    """Write a report to path in place, or through sys.stdout when path is
    standard output's file (``/dev/stdout``, say).  Opened afresh, a
    redirected stdout's file starts at offset 0: a second report would
    overwrite the first, and the summary printed after them both."""
    try:
        to_stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no such file yet, or a stdout without a descriptor
        to_stdout = False
    if to_stdout:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        write_in_place(path, text)


def cli_main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _merge_options(args, args.command)
        for path in (cfg.out_csv, cfg.out_json):
            if path:
                _check_report_path(path)
        bundle = run_experiment(cfg)
        if cfg.out_csv:
            _write_report(cfg.out_csv, bundle.csv_text())
        if cfg.out_json:
            _write_report(cfg.out_json, bundle.json_text())
        checks = "ok" if bundle.passed else "FAILED"
        print(f"{bundle.kind}: {len(bundle.rows)} rows, checks {checks}")
        for note in bundle.notes:
            print(f"  {note}")
        return 3 if getattr(args, "check", False) and not bundle.passed else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
