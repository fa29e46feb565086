"""Command-line front end.

Subcommands: simulate, discover, bivariate, sweep-bivariate,
sweep-multivariate, oracle-verify, identifiability.  A flat key=value
config file can supply any long option's value; explicit flags win.
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
from .discovery import NoSinkFoundError, bivariate_direction, discover
from .graphs import ENUMERATE_DAGS_LIMIT, Dag
from .sampling import (
    AtomMixturePrior,
    BetaColumnsPrior,
    DirichletColumnsPrior,
    MixturePrior,
    XorBetaPrior,
    _node_drawers,
    bivariate_xor_model,
    sample_dataset,
)


def _load_config(path):
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _pick(args, cfg, key, default, cast=str):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes")
        try:
            return cast(raw)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise SystemExit(f"{args.config}: {key}={raw}: {err}") from None
    return default


# Converters for option values.  Each one is both the flag's argparse `type`
# and the `_pick` cast of its config value, so the two are checked alike.


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
    """Exit with a message naming the dataset CSV at `path` when reading it,
    or running the algorithm on it, rejects it."""
    try:
        yield
    except (OSError, harness.CsvFormatError) as err:  # these messages name the file
        raise SystemExit(str(err)) from None
    except ValueError as err:
        raise SystemExit(f"{path}: {err}") from None


def _parse_graph(spec: str) -> Dag:
    if spec in harness.PRESET_GRAPHS:
        return harness.preset_graph(spec)
    path = Path(spec)
    if path.exists():
        return Dag.from_json(path.read_text())
    return Dag.from_json(spec)


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
    path = Path(spec)
    try:
        data = json.loads(path.read_text() if path.exists() else spec)
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
            if kind == "beta":
                node_priors.append(BetaColumnsPrior(entry["a"], entry["b"]))
            elif kind == "xor_beta":
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
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset CSV (+ JSON sidecar)")
    p.add_argument("--graph", help="preset name, JSON file, or inline JSON")
    p.add_argument("--prior", help="xor | JSON prior spec (file or inline)")
    p.add_argument("--envs", type=_COUNT)
    p.add_argument("--samples-per-env", type=_COUNT)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--out", help="output CSV path")

    p = sub.add_parser("discover", help="run discovery on a dataset CSV")
    p.add_argument("--in", dest="input")
    p.add_argument("--alpha", type=_alpha)
    p.add_argument("--force", action="store_true", default=None,
                   help="break sink deadlocks by max-min-p instead of failing")
    p.add_argument("--out", help="result JSON path (default: stdout)")

    p = sub.add_parser("bivariate", help="three-hypothesis direction call on a 2-variable CSV")
    p.add_argument("--in", dest="input")
    p.add_argument("--alpha", type=_alpha)

    p = sub.add_parser("sweep-bivariate", help="xor benchmark accuracy over environment counts")
    p.add_argument("--envs", type=_env_grid, help="comma-separated grid, e.g. 500,2000,4000")
    p.add_argument("--repeats", type=_COUNT)
    p.add_argument("--alpha", type=_alpha)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--samples-per-env", type=_DISCOVERY_SAMPLES)
    p.add_argument("--paper-scale", action="store_true", default=None)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("sweep-multivariate", help="graph recovery rates for preset graphs")
    p.add_argument("--graphs", type=_preset_names, help="comma-separated preset names")
    p.add_argument("--envs", type=_env_grid, help="comma-separated per-graph environment counts")
    p.add_argument("--repeats", type=_COUNT)
    p.add_argument("--alpha", type=_alpha)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--samples-per-env", type=_DISCOVERY_SAMPLES)
    p.add_argument("--paper-scale", action="store_true", default=None)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("oracle-verify", help="exact Markov/faithfulness sweep over all DAGs")
    p.add_argument("--d", type=_DAG_SIZE)
    p.add_argument("--models-per-graph", type=_COUNT)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("identifiability", help="equivalence-class partition over all DAGs")
    p.add_argument("--d", type=_DAG_SIZE)
    p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _load_config(args.config) if args.config else {}

    if args.command == "simulate":
        graph_spec = _pick(args, cfg, "graph", None)
        if graph_spec is None:
            parser.error("simulate requires --graph")
        g = _parse_graph(graph_spec)
        prior = _parse_prior(_pick(args, cfg, "prior", None), g)
        ds = sample_dataset(
            g,
            prior,
            _pick(args, cfg, "envs", 1000, _COUNT),
            _pick(args, cfg, "samples_per_env", 2, _COUNT),
            _pick(args, cfg, "seed", 0, _SEED),
        )
        out = _pick(args, cfg, "out", "dataset.csv")
        harness.write_dataset_csv(ds, out)
        print(f"wrote {ds.n_envs} environments to {out}")
        return 0

    if args.command == "discover":
        input_path = _pick(args, cfg, "input", None)
        if input_path is None:
            parser.error("discover requires --in")
        alpha = _pick(args, cfg, "alpha", DEFAULT_ALPHA, _alpha)
        force = bool(_pick(args, cfg, "force", False, bool))
        try:
            with _input_file(input_path):
                result = harness.discover_file(input_path, alpha=alpha, force=force)
        except NoSinkFoundError as exc:
            print(f"discovery failed: {exc}", file=sys.stderr)
            return 2
        payload = json.dumps(result.to_dict(), indent=2) + "\n"
        out = _pick(args, cfg, "out", None)
        if out:
            Path(out).write_text(payload)
        else:
            sys.stdout.write(payload)
        return 0

    if args.command == "bivariate":
        input_path = _pick(args, cfg, "input", None)
        if input_path is None:
            parser.error("bivariate requires --in")
        alpha = _pick(args, cfg, "alpha", DEFAULT_ALPHA, _alpha)
        with _input_file(input_path):
            direction = bivariate_direction(harness.ingest_csv(input_path), alpha)
        print(direction)
        return 0

    if args.command == "sweep-bivariate":
        paper = bool(_pick(args, cfg, "paper_scale", False, bool))
        default_grid = tuple(range(100, 4001, 100)) if paper else (500, 2000, 4000)
        grid = _pick(args, cfg, "envs", default_grid, _env_grid)
        exp = harness.ExperimentConfig(
            kind="bivariate-sweep",
            env_grid=grid,
            repeats=_pick(args, cfg, "repeats", 100 if paper else 20, _COUNT),
            alpha=_pick(args, cfg, "alpha", DEFAULT_ALPHA, _alpha),
            seed=_pick(args, cfg, "seed", 0, _SEED),
            samples_per_env=_pick(args, cfg, "samples_per_env", 2, _DISCOVERY_SAMPLES),
            paper_scale=paper,
            out_dir=_pick(args, cfg, "out", None),
        )
        for row in harness.run_bivariate_sweep(exp):
            print(f"envs={row['n_envs']:>6}  correct={row['correct_fraction']:.3f}")
        return 0

    if args.command == "sweep-multivariate":
        paper = bool(_pick(args, cfg, "paper_scale", False, bool))
        graphs = _pick(args, cfg, "graphs", (), _preset_names)
        grid = _pick(args, cfg, "envs", (), _env_grid)
        exp = harness.ExperimentConfig(
            kind="multivariate",
            env_grid=grid,
            graphs=graphs,
            repeats=_pick(args, cfg, "repeats", 100 if paper else 20, _COUNT),
            alpha=_pick(args, cfg, "alpha", DEFAULT_ALPHA, _alpha),
            seed=_pick(args, cfg, "seed", 0, _SEED),
            samples_per_env=_pick(args, cfg, "samples_per_env", 2, _DISCOVERY_SAMPLES),
            paper_scale=paper,
            out_dir=_pick(args, cfg, "out", None),
        )
        rows = harness.run_multivariate(exp, workers=_pick(args, cfg, "workers", 1, int))
        for row in rows:
            edges = ", ".join(f"{k}:{v:.2f}" for k, v in sorted(row["edge_recovery"].items()))
            print(
                f"{row['graph']:<10} envs={row['n_envs']:>7} "
                f"graph={row['graph_recovery']:.2f}  edges[{edges}]"
            )
        return 0

    if args.command == "oracle-verify":
        result = harness.run_oracle_sweep(
            d=_pick(args, cfg, "d", 3, _DAG_SIZE),
            models_per_graph=_pick(args, cfg, "models_per_graph", 5, _COUNT),
            seed=_pick(args, cfg, "seed", 0, _SEED),
            out_dir=_pick(args, cfg, "out", None),
        )
        print(
            f"d={result['d']}: {result['n_dags']} DAGs, "
            f"markov_ok={result['all_markov_ok']}, "
            f"ci_sets_distinct={result['icm_ci_sets_distinct']}"
        )
        return 0 if result["all_markov_ok"] and result["icm_ci_sets_distinct"] else 1

    if args.command == "identifiability":
        result = harness.run_identifiability(
            d=_pick(args, cfg, "d", 3, _DAG_SIZE),
            out_dir=_pick(args, cfg, "out", None),
        )
        print(
            f"d={result['d']}: {result['n_dags']} DAGs, "
            f"unrolled classes all singletons={set(result['icm_class_sizes']) == {1}}, "
            f"classical classes={result['iid_class_count']} sizes={result['iid_class_sizes']}"
        )
        return 0

    parser.error(f"unknown command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
