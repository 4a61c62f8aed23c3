"""
Command-line front end: ingest, augment, train, eval and retro.

Every command is deterministic given identical inputs and seeds; all
randomness flows from the single --seed flag. Options may also be supplied
through an INI-style config file (one section per subcommand, keys named
like the long flags, no others); explicit flags override file values.
``_SCHEMA`` is where an option's type, default and valid values live.

Exit codes: 0 success, 1 input error, 2 empty or degenerate result,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from contextlib import contextmanager
from pathlib import Path

# Only numpy-free modules are imported here, so augment never loads numpy
# or starts its OpenBLAS threads; train, eval and retro import the neural,
# fingerprint, ranking and pipeline names they run.
from . import dataset as ds
from .pattern import load_templates
from .tsv import write_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EMPTY = 2
EXIT_INTERNAL = 3


class CliError(ValueError):
    """An input error: ``main`` prints it and exits 1."""


class EmptyResult(Exception):
    """An empty or degenerate input: ``main`` prints it after the command's
    name and exits 2."""


_MODELS = ("nn1pr", "nn2pr")


def _model_spec(name: str):
    from .neural import nn1pr_spec, nn2pr_spec

    return {"nn1pr": nn1pr_spec, "nn2pr": nn2pr_spec}[name]


def _model_width(name: str) -> int:
    return _model_spec(name)()[0].in_dim


def _pos_weight(text: str) -> str | float:
    """'' (no weighting) and 'auto' as given, else a weight in [0, inf)."""
    if text in ("", "auto"):
        return text
    weight = float(text)
    if not 0 <= weight < math.inf:
        raise ValueError(f"expected 'auto' or a number in [0, inf), got {text!r}")
    return weight


def _output_path(text: str) -> str:
    """'' (no output) as given, else a path that can be written: its
    directory exists and it is no directory itself. Checked with the
    options, before any input is read, so a command that cannot write one
    output writes none."""
    if not text:
        return text
    path = Path(text)
    if path.is_dir():
        raise ValueError(f"cannot write {text}: it is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"cannot write {text}: {path.parent} is not a directory")
    return text


# Valid values: (rule shown in --help and errors, test). Every test is a
# comparison, so NaN fails it.
_AT_LEAST_0 = ("at least 0", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_IN_0_1 = ("in [0, 1]", lambda v: 0 <= v <= 1)
_IN_OPEN_0_1 = ("in (0, 1)", lambda v: 0 < v < 1)
_IN_0_OPEN_1 = ("in [0, 1)", lambda v: 0 <= v < 1)
_POSITIVE = ("in (0, inf)", lambda v: 0 < v < math.inf)
_NOT_NAN = ("a number, not NaN", lambda v: v == v)

# Option schema per subcommand: name -> (type, default, help, valid values
# or None). A default of None marks a required option.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "ingest": {
        "reactions": (str, None, "reactions TSV (id, ecs, reactants, products)", None),
        "compounds": (str, "", "compound table TSV (id, raw_smiles|UNRESOLVED)", None),
        "out-dir": (str, None, "output directory", None),
    },
    "augment": {
        "corpus": (str, None, "mono-product corpus TSV from ingest", None),
        "templates": (str, None, "template TSV", None),
        "out-dir": (str, None, "output directory", None),
        "pathways": (str, "", "optional pathways TSV for two-step chains", None),
        "seed": (int, 0, "random seed", _AT_LEAST_0),
        "neg-fraction": (float, 1.0, "fraction of negatives kept (seeded)", _IN_0_1),
        "test-fraction": (float, 0.1, "group fraction reserved for testing", _IN_OPEN_0_1),
        "threads": (int, 1, "worker threads for augmentation", _AT_LEAST_1),
    },
    "train": {
        "model": (str, None, "model to train", ("nn1pr or nn2pr", lambda v: v in _MODELS)),
        "data": (str, None, "training dataset TSV", None),
        "out": (_output_path, None, "output weight file", None),
        "history": (_output_path, "", "optional per-epoch loss/accuracy CSV", None),
        "epochs": (int, 30, "training epochs", _AT_LEAST_0),
        "batch": (int, 128, "batch size", _AT_LEAST_1),
        "lr": (float, 0.001, "Adam learning rate", _POSITIVE),
        "dropout": (float, 0.2, "hidden-layer dropout rate", _IN_0_OPEN_1),
        "seed": (int, 0, "random seed", _AT_LEAST_0),
        "pos-weight": (_pos_weight, "", "positive class weight: a number or 'auto'", None),
    },
    "eval": {
        "weights": (str, None, "trained weight file", None),
        "data": (str, None, "test dataset TSV", None),
        "out": (_output_path, None, "JSON report path", None),
        "tsv": (_output_path, "", "optional per-group rank TSV", None),
    },
    "retro": {
        "target": (str, None, "target SMILES", None),
        "templates": (str, None, "template TSV", None),
        "nn1": (str, None, "one-step ranker weight file", None),
        "nn2": (str, "", "optional two-step ranker weight file", None),
        "out": (_output_path, None, "JSON search report path", None),
        "max-steps": (int, 3, "maximum backward steps", _AT_LEAST_1),
        "beam": (int, 10, "beam width per level", _AT_LEAST_1),
        "prune": (float, 0.0, "one-step score pruning threshold", _NOT_NAN),
        "stop-set": (str, "", "file of stop-set SMILES, one per line", None),
        "gold": (str, "", "gold pathway TSV (product, precursors per step)", None),
        "pathways-tsv": (_output_path, "", "optional reconstructed-pathway TSV", None),
        "max-nodes": (int, 100000, "node budget", _AT_LEAST_1),
        "threads": (int, 1, "accepted and not used: the search runs serially", _AT_LEAST_1),
    },
}


_FORMATS_EPILOG = """\
file formats (all TSV files are UTF-8 with '#' comment lines):
  reactions:   reaction_id  ec_numbers(';')  reactant_smiles('.')  product_smiles('.')
  compounds:   compound_id  raw_smiles|UNRESOLVED
  templates:   template_id  direction(bwd)  diameter  ec_numbers(';')  smarts
  pathways:    pathway_id   reaction_ids(';', ordered from the final target)
  datasets:    label(positive|negative)  group_key  target  precursors(1 or 2 steps ';',
               molecules '.')  weight(finite, >= 0)
  stop set:    one SMILES per line
  gold:        product_smiles  precursor_smiles('.')  -- one row per backward step
a malformed row in any input file exits 1 with an error naming file:line.

weight files are little-endian binary: magic "NNPR", u32 version=1,
u32 layer_count, then per layer u32 in_dim, u32 out_dim, u8 activation
(0=relu 1=sigmoid 2=none), f32 dropout in [0, 1), f32 weights row-major
(input index major), f32 biases; every parameter finite. retro takes a
1024-wide --nn1 file and a 1536-wide --nn2 file.
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrobio",
        description="Template-based retrobiosynthesis with neural ranking.",
        epilog=_FORMATS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default="", help="INI config file")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in _SCHEMA.items():
        sub = subparsers.add_parser(
            command,
            epilog=_FORMATS_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for name, (_, default, help_text, valid) in options.items():
            notes = [] if default is None else [f"default {default}"]
            notes += [valid[0]] if valid else []
            sub.add_argument(
                f"--{name}", default=argparse.SUPPRESS,
                help=help_text + (f" ({'; '.join(notes)})" if notes else ""),
            )
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge precedence: explicit flag > config file section > default.

    Flag and config text are converted and checked alike, and an error names
    the flag or the file and key; defaults are used as they are. A config
    section that is no command, or a key of the command's own section that
    it does not take, is an error; [DEFAULT] keys apply to every command and
    are not checked."""
    schema = _SCHEMA[args.command]
    file_values: dict[str, str] = {}
    if args.config:
        config = configparser.ConfigParser()
        try:
            if not config.read(args.config, encoding="utf-8"):
                raise CliError(f"config file not found: {args.config}")
            for section in config.sections():
                if section not in _SCHEMA:
                    raise CliError(f"{args.config}: unknown section [{section}]")
            if config.has_section(args.command):
                file_values = dict(config.items(args.command))
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser spreads some messages, with the line, over lines
            raise CliError(f"{args.config}: {' '.join(str(exc).split())}") from exc
        for name in file_values:
            if name not in schema and name not in config.defaults():
                raise CliError(f"{args.config}: [{args.command}] {name}: unknown key")
    options = {}
    supplied = vars(args)
    for name, (kind, default, _, valid) in schema.items():
        attr = name.replace("-", "_")
        if attr in supplied:
            text, source = supplied[attr], f"--{name}"
        elif name in file_values:
            text, source = file_values[name], f"{args.config}: [{args.command}] {name}"
        elif default is None:
            raise CliError(f"missing required option --{name}")
        else:
            options[attr] = default
            continue
        try:
            value = kind(text)
        except ValueError as exc:
            raise CliError(f"{source}: {exc}") from exc
        if valid and not valid[1](value):
            raise CliError(f"{source} must be {valid[0]}, got {value!r}")
        options[attr] = value
    return options


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {path}")
    return p


def _load_templates(path: str) -> list:
    templates = load_templates(_require_file(path, "template file"))
    if not templates:
        raise EmptyResult(f"template file {path} holds no templates")
    return templates


def cmd_ingest(options: dict) -> int:
    reactions = ds.read_reactions_tsv(
        _require_file(options["reactions"], "reactions file"), unique_ids=True
    )
    table_entries = (
        ds.read_compounds_tsv(_require_file(options["compounds"], "compounds file"))
        if options["compounds"]
        else []
    )
    monos, stats = ds.clean_reactions(reactions, table_entries)
    if not monos:
        raise EmptyResult(f"reactions file {options['reactions']} holds no usable reactions")
    ds.flag_disjoint_products(monos, stats)
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ds.write_reactions_tsv(out_dir / "mono_reactions.tsv", monos)
    write_json(out_dir / "corpus_stats.json", stats.to_dict())
    print(
        f"ingest: {stats.reactions_in} reactions in, "
        f"{stats.reactions_dropped} dropped, "
        f"{stats.mono_reactions} mono-product reactions, "
        f"{stats.unique_products} unique products"
    )
    return EXIT_OK


def cmd_augment(options: dict) -> int:
    corpus = ds.read_reactions_tsv(_require_file(options["corpus"], "corpus file"))
    templates = _load_templates(options["templates"])
    pathways = None  # read, like every input, before the first output is written
    if options["pathways"]:
        pathways = ds.read_pathways_tsv(_require_file(options["pathways"], "pathways file"))
    positives, stats = ds.clean_reactions(corpus, [])
    if not positives:
        raise EmptyResult(f"corpus file {options['corpus']} holds no usable reactions")
    negatives = ds.augment_negatives(
        positives, templates, max_workers=options["threads"], stats=stats
    )
    combined = ds.subsample_negatives(
        [p.row() for p in positives] + negatives, options["neg_fraction"], options["seed"]
    )
    train_set, test_set = ds.split_train_test(
        combined, options["test_fraction"], options["seed"]
    )
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ds.write_examples_tsv(out_dir / "onestep_train.tsv", train_set)
    ds.write_examples_tsv(out_dir / "onestep_test.tsv", test_set)

    if pathways is not None:
        chains = ds.extract_chains(pathways, positives)
        chain_negatives = ds.make_pathway_pairs(chains, negatives)
        chain_train, chain_test = ds.split_train_test(
            [c.row() for c in chains] + chain_negatives,
            options["test_fraction"],
            options["seed"],
        )
        ds.write_examples_tsv(out_dir / "twostep_train.tsv", chain_train)
        ds.write_examples_tsv(out_dir / "twostep_test.tsv", chain_test)
        print(
            f"augment: {len(chains)} positive chains, "
            f"{len(chain_negatives)} negative chains"
        )

    write_json(out_dir / "augment_stats.json", stats.to_dict())
    print(
        f"augment: {len(positives)} positives, "
        f"{stats.negatives_generated} negatives generated, "
        f"{len(train_set)} train rows, {len(test_set)} test rows"
    )
    return EXIT_OK


def cmd_train(options: dict) -> int:
    from .neural import TrainConfig, save_weights, train

    model_name = options["model"]
    data = _require_file(options["data"], "training data")
    rows = ds.read_examples_tsv(data)
    if not rows:
        raise EmptyResult(f"training data {data} holds no rows")
    with ds.naming_dataset(data):
        features, labels, weights = ds.features_for(rows)
    expected = _model_width(model_name)
    if 8 * features.shape[1] != expected:  # packed: 8 features per byte
        raise EmptyResult(
            f"{data}: feature width {8 * features.shape[1]} does not match "
            f"{model_name} input width {expected}"
        )
    pos_weight = options["pos_weight"]
    if pos_weight == "auto":
        n_pos = int(labels.sum())
        pos_weight = (len(labels) - n_pos) / n_pos if n_pos else None
    elif pos_weight == "":
        pos_weight = None
    config = TrainConfig(
        learning_rate=options["lr"],
        batch_size=options["batch"],
        epochs=options["epochs"],
        seed=options["seed"],
        positive_weight=pos_weight,
    )
    spec = _model_spec(model_name)(options["dropout"])
    with ds.naming_dataset(data):
        model, history = train(
            spec, features, labels, config, weights, history=bool(options["history"])
        )
    try:  # before --out is opened, so a failure leaves no file behind
        blob = save_weights(model)
    except ValueError as exc:
        raise EmptyResult(f"training diverged ({exc}); try a lower --lr") from exc
    print(
        f"train: {model_name} with {model.parameter_count} parameters, "
        f"{options['epochs']} epochs"
    )
    with open(options["out"], "wb") as fh:
        fh.write(blob)
    if options["history"]:
        history.save_csv(options["history"])
    return EXIT_OK


def _load_model(path: str, what: str, input_dim: int | None = None):
    """Load a weight file into an ``MlpModel``; every error, an output width
    other than 1 and an input width other than ``input_dim`` when given name
    the file."""
    from .neural import load_weights

    with open(_require_file(path, what), "rb") as fh:
        try:
            model = load_weights(fh)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
    if model.layers[-1].out_dim != 1:
        raise CliError(f"{path}: {what} has {model.layers[-1].out_dim} outputs, expected 1")
    if input_dim is not None and model.input_dim != input_dim:
        raise CliError(
            f"{path}: {what} has input width {model.input_dim}, "
            f"expected {input_dim}"
        )
    return model


@contextmanager
def _naming_weights(*models):
    """Name the path, of (model, path) ``models``, whose model scored NaN."""
    from .neural import NaNScore

    try:
        yield
    except NaNScore as exc:
        path = next(path for model, path in models if model is exc.model)
        raise CliError(f"{path}: {exc}") from exc


def cmd_eval(options: dict) -> int:
    from .fingerprint import Fingerprinter
    from .ranking import evaluate_ranking, group_rows, row_scorer
    from .ranking import write_report_json, write_report_tsv

    model = _load_model(options["weights"], "weight file")
    data = _require_file(options["data"], "test data")
    rows = ds.read_examples_tsv(data)
    if not rows:
        raise EmptyResult(f"test data {data} holds no rows")
    kind = next((name for name in _MODELS if _model_width(name) == model.input_dim), None)
    if kind is None:
        raise CliError(f"{options['weights']}: unexpected input width {model.input_dim}")
    fingerprinter = Fingerprinter()
    with _naming_weights((model, options["weights"])), ds.naming_dataset(data):
        ds.require_uniform_steps(rows)
        units = group_rows(rows)
        model_report = evaluate_ranking(
            row_scorer(kind, fingerprinter, model), units, scorer_name=kind
        )
        baseline_report = evaluate_ranking(
            row_scorer("baseline", fingerprinter), units, scorer_name="baseline"
        )
    write_report_json(options["out"], [model_report, baseline_report])
    if options["tsv"]:
        write_report_tsv(options["tsv"], model_report)
    for report in (model_report, baseline_report):
        top10 = report.coverage.at(10)
        print(f"eval: {report.scorer_name} top-10 coverage {top10:.3f}")
    return EXIT_OK


def cmd_retro(options: dict) -> int:
    from .pipeline import SearchConfig, read_gold_tsv, read_stop_set, run_retro

    templates = _load_templates(options["templates"])
    nn1 = _load_model(options["nn1"], "nn1 weight file", _model_width("nn1pr"))
    nn2 = (
        _load_model(options["nn2"], "nn2 weight file", _model_width("nn2pr"))
        if options["nn2"]
        else None
    )
    stop_set = frozenset()
    if options["stop_set"]:
        stop_set = read_stop_set(_require_file(options["stop_set"], "stop-set file"))
        if not stop_set:
            raise EmptyResult(f"stop-set file {options['stop_set']} holds no SMILES")
    gold = (
        read_gold_tsv(_require_file(options["gold"], "gold pathway file"))
        if options["gold"]
        else None
    )
    config = SearchConfig(
        max_steps=options["max_steps"],
        beam_width=options["beam"],
        prune_threshold=options["prune"],
        stop_set=stop_set,
        max_nodes=options["max_nodes"],
    )
    with _naming_weights((nn1, options["nn1"]), (nn2, options["nn2"])):
        report = run_retro(options["target"], templates, nn1, nn2, config, gold_steps=gold)
    report.save_json(options["out"])
    if options["pathways_tsv"]:
        report.save_pathways_tsv(options["pathways_tsv"])
    print(
        f"retro: {len(report.pathways)} pathways, "
        f"{sum(level['generated'] for level in report.levels)} candidates "
        f"generated, budget_exceeded={report.budget_exceeded}"
    )
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "augment": cmd_augment,
    "train": cmd_train,
    "eval": cmd_eval,
    "retro": cmd_retro,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage or the help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        options = _resolve_options(args)
        return _COMMANDS[args.command](options)
    except EmptyResult as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
