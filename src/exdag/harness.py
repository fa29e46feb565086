"""Experiment harness: dataset CSV/JSON I/O and the simulation sweeps that
reproduce the bivariate-direction and multivariate-recovery experiments at
desk scale, plus exhaustive oracle and identifiability verification sweeps.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import oracle as oracle_mod
from .ci_test import DEFAULT_ALPHA
from .discovery import (
    NoSinkFoundError,
    X_TO_Y,
    bivariate_direction,
    discover,
)
from .graphs import (
    Dag,
    ci_set,
    enumerate_dags,
    icm_unroll,
)
from .sampling import (
    EnvDataset,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    sample_dataset,
)

PRESET_GRAPHS: Dict[str, Dag] = {
    # 3-node fork A->B, A->C
    "fork3": Dag(3, frozenset({(0, 1), (0, 2)})),
    # 3-node collider B->A<-C
    "collider3": Dag(3, frozenset({(1, 0), (2, 0)})),
    "chain3": Dag(3, frozenset({(0, 1), (1, 2)})),
    "chain4": Dag(4, frozenset({(0, 1), (1, 2), (2, 3)})),
    # 4-node chain with the extra B->D shortcut
    "diamond4": Dag(4, frozenset({(0, 1), (1, 2), (2, 3), (1, 3)})),
}


def preset_graph(name: str) -> Dag:
    try:
        return PRESET_GRAPHS[name]
    except KeyError:
        raise ValueError(f"unknown preset graph {name!r}; options: {sorted(PRESET_GRAPHS)}")


def default_binary_prior(g: Dag, a: float = 1.0, b: float = 3.0) -> MixturePrior:
    """Multivariate experiment prior: every node is a Ber(psi) flip xor the
    parity of its parents with psi ~ Beta(a, b), extending the bivariate
    benchmark's mechanism to arbitrary binary graphs.  Independent Beta
    draws per CPT column give every column the same mean, so no edge can be
    found: with each column's Beta(1, 3) replaced by the 2-point atoms that
    match its moments up to order 3, oracle discovery at two samples per
    environment returns the empty graph on fork3, collider3 and chain4,
    where these xor atoms recover all three."""
    return MixturePrior(tuple(XorBetaPrior(a, b) for _ in range(g.d)))


def derive_seed(*parts: int) -> int:
    """Stable sub-seed derivation for repeat/grid indexing."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _stable_tag(name: str) -> int:
    return int.from_bytes(name.encode()[:6], "big")


@dataclass
class ExperimentConfig:
    kind: str
    env_grid: Tuple[int, ...] = ()
    graphs: Tuple[str, ...] = ()
    samples_per_env: int = 2
    repeats: int = 20
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    paper_scale: bool = False
    force: bool = True
    out_dir: Optional[str] = None

    def __post_init__(self):
        self.env_grid = tuple(int(e) for e in self.env_grid)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# dataset CSV round trip


def write_dataset_csv(ds: EnvDataset, path) -> None:
    """Write `env,sample,X1..Xd` rows (CRLF line ends, environments in order)
    straight from the dataset's `rows`/`offsets` layout, plus the JSON
    sidecar `<path>.meta.json`."""
    path = Path(path)
    sizes = np.diff(ds.offsets)
    env = np.repeat(np.arange(ds.n_envs), sizes)
    sample = np.arange(ds.rows.shape[0]) - np.repeat(ds.offsets[:-1], sizes)
    table = np.column_stack((env, sample, ds.rows))
    header = ",".join(["env", "sample"] + [f"X{i + 1}" for i in range(ds.d)])
    line = ",".join(["%d"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write("".join([header + "\r\n"] + [line % tuple(row) for row in table.tolist()]))
    sidecar = {
        "seed": ds.seed,
        "cardinalities": list(ds.cardinalities),
        "prior": ds.prior_description,
        "true_graph": ds.true_graph.to_dict() if ds.true_graph is not None else None,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


class CsvFormatError(ValueError):
    pass


_CSV_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _row_error(path: Path, lines: List[str], d: int, parse_error: str) -> CsvFormatError:
    """Locate the first malformed data row by re-reading the rows one by
    one.  Runs only after the whole-file parse has failed."""
    for lineno, line in enumerate(lines, start=2):
        row = line.split(",") if line else []
        if len(row) != d + 2:
            return CsvFormatError(f"{path}:{lineno}: expected {d + 2} columns, got {len(row)}")
        if not all(_CSV_INT.fullmatch(v) for v in row):
            return CsvFormatError(f"{path}:{lineno}: non-integer value in {row}")
    return CsvFormatError(f"{path}: {parse_error}")


def ingest_csv(path) -> EnvDataset:
    """Parse the `env,sample,X1..Xd` dataset format, with its JSON sidecar
    (cardinalities, seed, true graph) when present.

    The data rows are parsed in one `np.loadtxt` call and sorted by
    (env, sample); environments come out in increasing `env` order.  A file
    is rejected with `CsvFormatError` naming `path:line` for a row with the
    wrong number of columns or a value that is not a plain decimal integer,
    a repeated (env, sample) pair (the second occurrence), sample indices
    that do not run 0..N_e-1 within an environment, and a value that is
    negative or not below its variable's cardinality (from the sidecar, or
    the column maximum plus one without one).  A sidecar that is not a JSON
    object, whose `cardinalities` are not d integers >= 1, or whose
    `true_graph` is malformed or not over d nodes is rejected with
    `CsvFormatError` naming the sidecar.
    """
    path = Path(path)
    with path.open() as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError(f"{path}: empty file")
    header = next(csv.reader(lines[:1]), [])
    if header[:2] != ["env", "sample"] or len(header) < 3:
        raise CsvFormatError(f"{path}: header must be env,sample,X1,...,Xd")
    d = len(header) - 2
    data = lines[1:]
    if not data:
        raise CsvFormatError(f"{path}: no data rows")
    table, parse_error = None, "blank line"
    if "" not in data:  # loadtxt would skip blank lines without a word
        try:
            table = np.loadtxt(data, dtype=np.int64, delimiter=",", ndmin=2, comments=None)
        except ValueError as err:
            parse_error = str(err)
    if table is None or table.shape != (len(data), d + 2):
        raise _row_error(path, data, d, parse_error)

    sidecar_path = Path(str(path) + ".meta.json")
    meta, cardinalities, true_graph = {}, None, None
    if sidecar_path.exists():
        try:
            meta = json.loads(sidecar_path.read_text())
            if not isinstance(meta, dict):
                raise ValueError(f"expected a JSON object, got {type(meta).__name__}")
            if meta.get("cardinalities") is not None:
                cardinalities = meta["cardinalities"]
                if not isinstance(cardinalities, list) or len(cardinalities) != d or not all(
                    type(k) is int and k >= 1 for k in cardinalities  # bools are not counts
                ):
                    raise ValueError(f"cardinalities {cardinalities!r}: expected {d} integers >= 1")
                cardinalities = tuple(cardinalities)
            if meta.get("true_graph"):
                true_graph = Dag.from_dict(meta["true_graph"])
                if true_graph.d != d:
                    raise ValueError(f"true_graph has {true_graph.d} nodes for {d} variables")
        except (KeyError, TypeError, ValueError) as err:  # JSONDecodeError is a ValueError
            raise CsvFormatError(f"{sidecar_path}: {type(err).__name__}: {err}") from None

    # row r of `table` is line r + 2 of the file
    order = np.lexsort((table[:, 1], table[:, 0]))  # stable: repeats keep file order
    env, sample = table[order, 0], table[order, 1]
    same_env = env[1:] == env[:-1]
    repeat = np.flatnonzero(same_env & (sample[1:] == sample[:-1])) + 1
    if repeat.size:
        r = int(order[repeat].min())
        raise CsvFormatError(
            f"{path}:{r + 2}: repeats env {table[r, 0]}, sample {table[r, 1]}"
        )
    starts = np.flatnonzero(np.r_[True, ~same_env])
    sizes = np.diff(np.r_[starts, len(order)])
    gap = np.flatnonzero(sample != np.arange(len(order)) - np.repeat(starts, sizes))
    if gap.size:
        r = int(order[gap[0]])
        raise CsvFormatError(
            f"{path}:{r + 2}: environment {table[r, 0]} has non-contiguous sample indices"
        )

    values = table[:, 2:]
    if cardinalities is None:
        cardinalities = tuple(int(m) + 1 for m in values.max(axis=0))
    out_of_range = (values < 0) | (values >= np.array(cardinalities))
    if out_of_range.any():
        r, i = (int(x) for x in np.argwhere(out_of_range)[0])
        raise CsvFormatError(
            f"{path}:{r + 2}: env {table[r, 0]}: variable {i} ({header[i + 2]}) value "
            f"{values[r, i]} out of range [0, {cardinalities[i]})"
        )
    return EnvDataset._from_rows(
        d,
        cardinalities,
        values[order],
        np.r_[starts, len(order)],
        true_graph=true_graph,
        seed=meta.get("seed"),
        prior_description=meta.get("prior"),
    )


def discover_file(path, alpha: float = DEFAULT_ALPHA, force: bool = False):
    return discover(ingest_csv(path), alpha=alpha, force=force)


# ---------------------------------------------------------------------------
# bivariate sweep


def _bivariate_point(n_envs: int, cfg: ExperimentConfig) -> dict:
    g, prior = bivariate_xor_model()
    correct = 0
    for r in range(cfg.repeats):
        seed = derive_seed(cfg.seed, n_envs, r)
        ds = sample_dataset(g, prior, n_envs, cfg.samples_per_env, seed)
        if bivariate_direction(ds, cfg.alpha) == X_TO_Y:
            correct += 1
    return {"n_envs": n_envs, "repeats": cfg.repeats, "correct_fraction": correct / cfg.repeats}


def run_bivariate_sweep(cfg: ExperimentConfig) -> List[dict]:
    """Correct-direction fraction of the three-hypothesis decision on the
    xor benchmark, per environment count."""
    grid = cfg.env_grid or (500, 2000, 4000)
    out = _make_out_dir(cfg.out_dir)
    rows = [_bivariate_point(n_envs, cfg) for n_envs in sorted(grid)]
    if out:
        fields = ["n_envs", "repeats", "correct_fraction"]
        _write_sweep(out, cfg, rows, "bivariate_sweep.csv", fields)
    return rows


# ---------------------------------------------------------------------------
# multivariate recovery


def _multivariate_graph(args):
    name, n_envs, repeats, alpha, seed, samples_per_env, force = args
    g = preset_graph(name)
    prior = default_binary_prior(g)
    exact = 0
    edge_hits = {e: 0 for e in sorted(g.edges)}
    deadlocks = 0
    for r in range(repeats):
        ds = sample_dataset(g, prior, n_envs, samples_per_env, derive_seed(seed, _stable_tag(name), r))
        try:
            result = discover(ds, alpha=alpha, force=force)
        except NoSinkFoundError:
            deadlocks += 1
            continue
        if result.graph == g:
            exact += 1
        for e in edge_hits:
            if e in result.graph.edges:
                edge_hits[e] += 1
    return {
        "graph": name,
        "n_envs": n_envs,
        "repeats": repeats,
        "graph_recovery": exact / repeats,
        "edge_recovery": {f"{u}->{v}": hits / repeats for (u, v), hits in edge_hits.items()},
        "deadlocks": deadlocks,
    }


def default_env_count(name: str, paper_scale: bool) -> int:
    g = preset_graph(name)
    if g.d <= 3:
        return 10_000
    return 100_000 if paper_scale else 20_000


def run_multivariate(cfg: ExperimentConfig, workers: int = 1) -> List[dict]:
    """Full-graph and per-edge recovery rates for the preset graphs."""
    names = cfg.graphs or ("fork3", "collider3", "chain4", "diamond4")
    jobs = []
    for idx, name in enumerate(names):
        n_envs = cfg.env_grid[idx] if idx < len(cfg.env_grid) else default_env_count(
            name, cfg.paper_scale
        )
        jobs.append(
            (name, n_envs, cfg.repeats, cfg.alpha, cfg.seed, cfg.samples_per_env, cfg.force)
        )
    out = _make_out_dir(cfg.out_dir)
    rows = list(_pool_map(_multivariate_graph, jobs, workers))
    rows.sort(key=lambda r: r["graph"])
    if out:
        flat = [
            {
                "graph": r["graph"],
                "n_envs": r["n_envs"],
                "repeats": r["repeats"],
                "graph_recovery": r["graph_recovery"],
                "deadlocks": r["deadlocks"],
                "edge_recovery": json.dumps(r["edge_recovery"], sort_keys=True),
            }
            for r in rows
        ]
        _write_sweep(
            out, cfg, flat, "multivariate.csv",
            ["graph", "n_envs", "repeats", "graph_recovery", "deadlocks", "edge_recovery"],
        )
    return rows


# ---------------------------------------------------------------------------
# oracle verification sweep


def run_oracle_sweep(
    d: int,
    models_per_graph: int = 5,
    samples_per_env: int = 2,
    max_condition_size: int = 3,
    seed: int = 0,
    out_dir: Optional[str] = None,
) -> dict:
    """Exhaustive check over all DAGs on d nodes: exact distributions are
    Markov to the unrolled graph, generically faithful, their independence
    sets match the graph's, and the unrolled independence sets are pairwise
    distinct across DAGs."""
    out = _make_out_dir(out_dir)
    dags = enumerate_dags(d)
    rng = np.random.default_rng(seed)
    graph_reports = []
    graph_ci_sets = []
    for g in dags:
        dmag_cis = ci_set(icm_unroll(g, samples_per_env), max_condition_size)
        graph_ci_sets.append(frozenset(s.sort_key() for s in dmag_cis))
        markov_ok = True
        faithful_count = 0
        bridge_count = 0
        for _ in range(models_per_graph):
            model = oracle_mod.random_generic_model(g, samples_per_env, rng)
            report = oracle_mod.verify_markov_faithful(model, max_condition_size)
            if not report.markov_ok:
                markov_ok = False
            if report.faithful:
                faithful_count += 1
            # the exact CI set equals the graph's iff neither list has a violation
            if report.markov_ok and report.faithful:
                bridge_count += 1
        graph_reports.append(
            {
                "graph": g.to_dict(),
                "markov_ok": markov_ok,
                "faithful_fraction": faithful_count / models_per_graph,
                "bridge_fraction": bridge_count / models_per_graph,
            }
        )
    n_distinct = len(set(graph_ci_sets))
    result = {
        "d": d,
        "n_dags": len(dags),
        "models_per_graph": models_per_graph,
        "all_markov_ok": all(r["markov_ok"] for r in graph_reports),
        "icm_ci_sets_distinct": n_distinct == len(dags),
        "graphs": graph_reports,
    }
    if out:
        (out / "oracle_sweep.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def run_identifiability(d: int = 3, samples_per_env: int = 2, out_dir: Optional[str] = None) -> dict:
    """Partition all DAGs on d nodes into classes: by unrolled independence
    sets (expected all singletons) and by classical skeleton/v-structure
    equivalence (expected coarser)."""
    out = _make_out_dir(out_dir)
    dags = enumerate_dags(d)
    icm_keys = [
        frozenset(s.sort_key() for s in ci_set(icm_unroll(g, samples_per_env), d))
        for g in dags
    ]
    icm_classes: Dict[frozenset, List[int]] = {}
    for idx, key in enumerate(icm_keys):
        icm_classes.setdefault(key, []).append(idx)

    # classical equivalence is exactly equality of (skeleton, v-structures)
    iid_sizes = Counter((g.skeleton(), g.v_structures()) for g in dags).values()

    result = {
        "d": d,
        "n_dags": len(dags),
        "icm_class_sizes": sorted(len(v) for v in icm_classes.values()),
        "iid_class_count": len(iid_sizes),
        "iid_class_sizes": sorted(iid_sizes),
    }
    if out:
        (out / "identifiability.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


# ---------------------------------------------------------------------------
# helpers


def _pool_map(fn, jobs, workers: int):
    workers = min(workers, len(jobs))  # the pool starts every worker at once
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _make_out_dir(out_dir: Optional[str]) -> Optional[Path]:
    """The output directory, created before any repeat runs, so that a path
    that cannot be a directory fails at once rather than after the sweep."""
    if not out_dir:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sweep(
    out: Path, cfg: ExperimentConfig, rows: List[dict], csv_name: str, fields: List[str]
):
    with (out / csv_name).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})
    manifest = {"config": cfg.to_dict(), "output": csv_name}
    (out / (csv_name.rsplit(".", 1)[0] + "_manifest.json")).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
