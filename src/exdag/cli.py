"""Command-line front end.

Subcommands: simulate, discover, bivariate, sweep-bivariate,
sweep-multivariate, oracle-verify, identifiability.  A flat key=value
config file (`--config`) sets the chosen subcommand's option defaults:
each value goes through the same converter as its flag, explicit flags
win, and keys that name no option of the subcommand are ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Optional

from . import harness
from .ci_test import DEFAULT_ALPHA
from .discovery import NoSinkFoundError, bivariate_direction
from .graphs import ENUMERATE_DAGS_LIMIT, Dag
from .sampling import (
    AtomMixturePrior,
    DirichletColumnsPrior,
    MixturePrior,
    XorBetaPrior,
    _node_drawers,
    bivariate_xor_model,
    sample_dataset,
)


# Converters for option values.  Each one is an option's argparse `type`, and
# `_config_defaults` passes the option's config value through it too.


def _int_in(lo: int, hi: Optional[int] = None):
    """Converter for an integer in [lo, hi] (no upper bound when hi is None)."""

    def convert(raw):
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {value}")
        return value

    return convert


_COUNT = _int_in(1)
_SEED = _int_in(0)
# discovery's cross-sample tests read sample index 1
_DISCOVERY_SAMPLES = _int_in(2)
_DAG_SIZE = _int_in(1, ENUMERATE_DAGS_LIMIT)


def _env_grid(raw) -> tuple:
    """Comma-separated environment counts, each >= 1."""
    return tuple(_COUNT(x) for x in str(raw).split(","))


def _preset_names(raw) -> tuple:
    names = tuple(str(raw).split(","))
    for name in names:
        if name not in harness.PRESET_GRAPHS:
            raise argparse.ArgumentTypeError(
                f"unknown preset graph {name!r}; options: {sorted(harness.PRESET_GRAPHS)}"
            )
    return names


def _switch(raw) -> bool:
    """A config file's on/off value: 1/true/yes or 0/false/no, in any case."""
    value = str(raw).lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected 1/true/yes or 0/false/no, got {raw!r}")
    return value in ("1", "true", "yes")


def _alpha(raw) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a level in (0, 1), got {value}")
    return value


@contextlib.contextmanager
def _input_file(path):
    """Exit with a message naming the dataset CSV at `path` when its format,
    or the algorithm run on it, rejects it."""
    try:
        yield
    except harness.CsvFormatError as err:  # its message names the file
        raise SystemExit(str(err)) from None
    except ValueError as err:
        raise SystemExit(f"{path}: {err}") from None


def _json_text(spec: str) -> str:
    """The text of the file `spec` names, else `spec` itself as inline JSON.
    A spec too long to be a file name is inline."""
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:  # ENAMETOOLONG
        is_file = False
    return path.read_text() if is_file else spec


def _parse_graph(spec: str) -> Dag:
    """A preset name, a JSON graph file or an inline JSON graph; anything
    else exits with a message naming the spec."""
    if spec in harness.PRESET_GRAPHS:
        return harness.preset_graph(spec)
    try:
        return Dag.from_dict(json.loads(_json_text(spec)))
    except (OSError, KeyError, TypeError, ValueError) as err:  # JSONDecodeError is a ValueError
        raise SystemExit(
            f"--graph {spec!r}: expected a preset ({', '.join(harness.PRESET_GRAPHS)}), "
            f"a JSON graph file or an inline JSON graph ({type(err).__name__}: {err})"
        ) from None


def _parse_prior(spec, g: Dag) -> MixturePrior:
    """`xor` (bivariate benchmark) or a JSON file/string with a per-node
    prior list.  Default: the parity-tied xor mechanism used by the
    multivariate experiments."""
    if spec is None:
        return harness.default_binary_prior(g)
    if spec == "xor":
        xg, prior = bivariate_xor_model()
        if xg.edges != g.edges or g.d != 2:
            raise SystemExit("--prior xor requires the bivariate graph X1->X2")
        return prior
    try:
        data = json.loads(_json_text(spec))
    except json.JSONDecodeError as err:
        raise SystemExit(
            f"--prior {spec!r}: expected xor, a JSON prior file or a JSON prior list ({err})"
        ) from None
    if not isinstance(data, list) or len(data) != g.d:
        raise SystemExit(f"--prior {spec!r}: expected a JSON list of one prior per node ({g.d})")
    node_priors = []
    for i, entry in enumerate(data):
        try:
            kind = entry["kind"]
            if kind == "xor_beta":
                node_priors.append(XorBetaPrior(entry["a"], entry["b"]))
            elif kind == "dirichlet":
                node_priors.append(DirichletColumnsPrior(tuple(entry["alpha"])))
            elif kind == "atoms":
                node_priors.append(
                    AtomMixturePrior([(a["weight"], a["cpt"]) for a in entry["atoms"]])
                )
            else:
                raise SystemExit(f"--prior {spec!r}: unknown prior kind {kind!r} for node {i}")
        except (KeyError, TypeError, ValueError) as err:
            raise SystemExit(
                f"--prior {spec!r}: bad prior for node {i} ({type(err).__name__}: {err})"
            ) from None
    prior = MixturePrior(tuple(node_priors))
    try:
        _node_drawers(g, prior)  # the sampler's own check of the prior against the graph
    except ValueError as err:
        raise SystemExit(f"--prior {spec!r}: does not fit the graph ({err})") from None
    return prior


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exdag",
        description="Causal DAG discovery from exchangeable multi-environment data.",
    )
    parser.add_argument("--config", help="key=value file of option defaults; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset CSV (+ JSON sidecar)")
    p.add_argument("--graph", help="preset name, JSON file, or inline JSON")
    p.add_argument("--prior", help="xor | JSON prior spec (file or inline)")
    p.add_argument("--envs", type=_COUNT, default=1000)
    p.add_argument("--samples-per-env", type=_COUNT, default=2)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", default="dataset.csv", help="output CSV path")

    for name, about in (
        ("discover", "run discovery on a dataset CSV"),
        ("bivariate", "three-hypothesis direction call on a 2-variable CSV"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--in", dest="input")
    p = sub.choices["discover"]
    p.add_argument("--alpha", type=_alpha, default=DEFAULT_ALPHA)
    p.add_argument("--force", action="store_true",
                   help="break sink deadlocks by max-min-p, naming each on stderr, "
                   "instead of failing")
    p.add_argument("--out", help="result JSON path (default: stdout)")

    for name, about, envs_about in (
        ("sweep-bivariate", "xor benchmark accuracy over environment counts",
         "comma-separated grid, e.g. 500,2000,4000"),
        ("sweep-multivariate", "graph recovery rates for preset graphs",
         "comma-separated per-graph environment counts"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--envs", type=_env_grid, default=(), help=envs_about)
        p.add_argument("--repeats", type=_COUNT, help="default 20, or 100 with --paper-scale")
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--samples-per-env", type=_DISCOVERY_SAMPLES, default=2)
        p.add_argument("--paper-scale", action="store_true")
        p.add_argument("--out", help="output directory")
    p.add_argument("--alpha", type=_alpha, default=DEFAULT_ALPHA)
    p.add_argument("--graphs", type=_preset_names, default=(), help="comma-separated preset names")

    p = sub.add_parser("oracle-verify", help="exact Markov/faithfulness sweep over all DAGs")
    p.add_argument("--d", type=_DAG_SIZE, default=3)
    p.add_argument("--models-per-graph", type=_COUNT, default=5)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("identifiability", help="equivalence-class partition over all DAGs")
    p.add_argument("--d", type=_DAG_SIZE, default=3)
    p.add_argument("--out", help="output directory")
    return parser


def _config_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Make the `--config` file's values the chosen subcommand's option
    defaults, each converted by its option's own `type` (`_switch` for an
    on/off flag).  Keys that name no option of the subcommand are ignored."""
    cfg = {}
    for lineno, raw in enumerate(Path(args.config).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{args.config}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = sub.choices[args.command]
    defaults = {}
    for action in command._actions:
        if action.dest not in cfg or action.default is argparse.SUPPRESS:  # --help
            continue
        raw = cfg[action.dest]
        convert = _switch if action.nargs == 0 else action.type or str
        try:
            defaults[action.dest] = convert(raw)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise SystemExit(f"{args.config}: {action.dest}={raw}: {err}") from None
    command.set_defaults(**defaults)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _config_defaults(parser, args)
            args = parser.parse_args(argv)
        return _run(parser, args)
    except OSError as err:  # a file that cannot be read or written; the message names it
        raise SystemExit(str(err)) from None


def _run(parser: argparse.ArgumentParser, args) -> int:
    if args.command == "simulate":
        if args.graph is None:
            parser.error("simulate requires --graph")
        g = _parse_graph(args.graph)
        prior = _parse_prior(args.prior, g)
        ds = sample_dataset(g, prior, args.envs, args.samples_per_env, args.seed)
        harness.write_dataset_csv(ds, args.out)
        print(f"wrote {ds.n_envs} environments to {args.out}")
        return 0

    if args.command in ("discover", "bivariate"):
        if args.input is None:
            parser.error(f"{args.command} requires --in")
        try:
            with _input_file(args.input):
                if args.command == "bivariate":
                    print(bivariate_direction(harness.ingest_csv(args.input)))
                    return 0
                result = harness.discover_file(args.input, alpha=args.alpha, force=args.force)
        except NoSinkFoundError as exc:
            print(f"discovery failed: {exc}", file=sys.stderr)
            return 2
        for sweep, variable, p_value in result.sink_order.forced:
            print(
                f"discovery forced: sweep {sweep} found no sink; placed variable {variable}, "
                f"minimum p-value {p_value:.4g}",
                file=sys.stderr,
            )
        payload = json.dumps(result.to_dict(), indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(payload)
        else:
            sys.stdout.write(payload)
        return 0

    if args.command in ("sweep-bivariate", "sweep-multivariate"):
        # what the user typed; the harness fills in the rest
        exp = harness.ExperimentConfig(
            env_grid=args.envs,
            graphs=getattr(args, "graphs", ()),
            repeats=args.repeats,
            alpha=getattr(args, "alpha", DEFAULT_ALPHA),
            seed=args.seed,
            samples_per_env=args.samples_per_env,
            paper_scale=args.paper_scale,
            out_dir=args.out,
        )
        if args.command == "sweep-bivariate":
            for row in harness.run_bivariate_sweep(exp):
                print(f"envs={row['n_envs']:>6}  correct={row['correct_fraction']:.3f}")
            return 0
        try:
            rows = harness.run_multivariate(exp)
        except ValueError as err:
            raise SystemExit(f"sweep-multivariate: {err}") from None
        for row in rows:
            edges = ", ".join(f"{k}:{v:.2f}" for k, v in sorted(row["edge_recovery"].items()))
            print(
                f"{row['graph']:<10} envs={row['n_envs']:>7} "
                f"graph={row['graph_recovery']:.2f}  deadlocks={row['deadlocks']}  edges[{edges}]"
            )
        return 0

    if args.command == "oracle-verify":
        result = harness.run_oracle_sweep(
            d=args.d, models_per_graph=args.models_per_graph, seed=args.seed, out_dir=args.out
        )
        print(
            f"d={result['d']}: {result['n_dags']} DAGs, "
            f"markov_ok={result['all_markov_ok']}, "
            f"ci_sets_distinct={result['icm_ci_sets_distinct']}"
        )
        return 0 if result["all_markov_ok"] and result["icm_ci_sets_distinct"] else 1

    result = harness.run_identifiability(d=args.d, out_dir=args.out)
    print(
        f"d={result['d']}: {result['n_dags']} DAGs, "
        f"unrolled classes all singletons={set(result['icm_class_sizes']) == {1}}, "
        f"classical classes={result['iid_class_count']} sizes={result['iid_class_sizes']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
