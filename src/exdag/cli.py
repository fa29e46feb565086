"""Command-line front end.

Subcommands: simulate, discover, bivariate, sweep-bivariate,
sweep-multivariate, oracle-verify, identifiability.  A flat key=value
config file can supply any long option's value; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .ci_test import DEFAULT_ALPHA
from .discovery import NoSinkFoundError, bivariate_direction, discover
from .graphs import Dag
from .sampling import (
    AtomMixturePrior,
    BetaColumnsPrior,
    DirichletColumnsPrior,
    MixturePrior,
    XorBetaPrior,
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
        return cast(raw)
    return default


def _parse_graph(spec: str) -> Dag:
    if spec in harness.PRESET_GRAPHS:
        return harness.preset_graph(spec)
    path = Path(spec)
    if path.exists():
        return Dag.from_json(path.read_text())
    return Dag.from_json(spec)


def _parse_prior(spec, g: Dag) -> MixturePrior:
    """`xor` (bivariate benchmark), `beta:a,b` (per-column Beta draws), or a
    JSON file/string with a per-node prior list.  Default: the parity-tied
    xor mechanism used by the multivariate experiments."""
    if spec is None:
        return harness.default_binary_prior(g)
    if spec == "xor":
        xg, prior = bivariate_xor_model()
        if xg.edges != g.edges or g.d != 2:
            raise SystemExit("--prior xor requires the bivariate graph X1->X2")
        return prior
    if spec.startswith("beta:"):
        a, b = (float(x) for x in spec[len("beta:"):].split(","))
        return harness.beta_columns_prior(g, a, b)
    path = Path(spec)
    data = json.loads(path.read_text() if path.exists() else spec)
    node_priors = []
    for entry in data:
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
            raise SystemExit(f"unknown prior kind {kind!r}")
    return MixturePrior(tuple(node_priors))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exdag",
        description="Causal DAG discovery from exchangeable multi-environment data.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset CSV (+ JSON sidecar)")
    p.add_argument("--graph", help="preset name, JSON file, or inline JSON")
    p.add_argument("--prior", help="xor | beta:a,b | JSON prior spec")
    p.add_argument("--envs", type=int)
    p.add_argument("--samples-per-env", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path")

    p = sub.add_parser("discover", help="run discovery on a dataset CSV")
    p.add_argument("--in", dest="input")
    p.add_argument("--alpha", type=float)
    p.add_argument("--force", action="store_true", default=None,
                   help="break sink deadlocks by max-min-p instead of failing")
    p.add_argument("--out", help="result JSON path (default: stdout)")

    p = sub.add_parser("bivariate", help="three-hypothesis direction call on a 2-variable CSV")
    p.add_argument("--in", dest="input")
    p.add_argument("--alpha", type=float)

    p = sub.add_parser("sweep-bivariate", help="xor benchmark accuracy over environment counts")
    p.add_argument("--envs", help="comma-separated grid, e.g. 500,2000,4000")
    p.add_argument("--repeats", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples-per-env", type=int)
    p.add_argument("--paper-scale", action="store_true", default=None)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("sweep-multivariate", help="graph recovery rates for preset graphs")
    p.add_argument("--graphs", help="comma-separated preset names")
    p.add_argument("--envs", help="comma-separated per-graph environment counts")
    p.add_argument("--repeats", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples-per-env", type=int)
    p.add_argument("--paper-scale", action="store_true", default=None)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("oracle-verify", help="exact Markov/faithfulness sweep over all DAGs")
    p.add_argument("--d", type=int)
    p.add_argument("--models-per-graph", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("identifiability", help="equivalence-class partition over all DAGs")
    p.add_argument("--d", type=int)
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
            _pick(args, cfg, "envs", 1000, int),
            _pick(args, cfg, "samples_per_env", 2, int),
            _pick(args, cfg, "seed", 0, int),
        )
        out = _pick(args, cfg, "out", "dataset.csv")
        harness.write_dataset_csv(ds, out)
        print(f"wrote {ds.n_envs} environments to {out}")
        return 0

    if args.command == "discover":
        input_path = _pick(args, cfg, "input", None)
        if input_path is None:
            parser.error("discover requires --in")
        try:
            result = harness.discover_file(
                input_path,
                alpha=_pick(args, cfg, "alpha", DEFAULT_ALPHA, float),
                force=bool(_pick(args, cfg, "force", False, bool)),
            )
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
        ds = harness.ingest_csv(input_path)
        print(bivariate_direction(ds, _pick(args, cfg, "alpha", DEFAULT_ALPHA, float)))
        return 0

    if args.command == "sweep-bivariate":
        paper = bool(_pick(args, cfg, "paper_scale", False, bool))
        grid_spec = _pick(args, cfg, "envs", None)
        if grid_spec:
            grid = tuple(int(x) for x in str(grid_spec).split(","))
        elif paper:
            grid = tuple(range(100, 4001, 100))
        else:
            grid = (500, 2000, 4000)
        exp = harness.ExperimentConfig(
            kind="bivariate-sweep",
            env_grid=grid,
            repeats=_pick(args, cfg, "repeats", 100 if paper else 20, int),
            alpha=_pick(args, cfg, "alpha", DEFAULT_ALPHA, float),
            seed=_pick(args, cfg, "seed", 0, int),
            samples_per_env=_pick(args, cfg, "samples_per_env", 2, int),
            paper_scale=paper,
            out_dir=_pick(args, cfg, "out", None),
        )
        for row in harness.run_bivariate_sweep(exp):
            print(f"envs={row['n_envs']:>6}  correct={row['correct_fraction']:.3f}")
        return 0

    if args.command == "sweep-multivariate":
        paper = bool(_pick(args, cfg, "paper_scale", False, bool))
        graphs_spec = _pick(args, cfg, "graphs", None)
        graphs = tuple(str(graphs_spec).split(",")) if graphs_spec else ()
        envs_spec = _pick(args, cfg, "envs", None)
        grid = tuple(int(x) for x in str(envs_spec).split(",")) if envs_spec else ()
        exp = harness.ExperimentConfig(
            kind="multivariate",
            env_grid=grid,
            graphs=graphs,
            repeats=_pick(args, cfg, "repeats", 100 if paper else 20, int),
            alpha=_pick(args, cfg, "alpha", DEFAULT_ALPHA, float),
            seed=_pick(args, cfg, "seed", 0, int),
            samples_per_env=_pick(args, cfg, "samples_per_env", 2, int),
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
            d=_pick(args, cfg, "d", 3, int),
            models_per_graph=_pick(args, cfg, "models_per_graph", 5, int),
            seed=_pick(args, cfg, "seed", 0, int),
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
            d=_pick(args, cfg, "d", 3, int),
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
