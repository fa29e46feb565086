"""Experiment harness: dataset CSV/JSON I/O and the simulation sweeps that
reproduce the bivariate-direction and multivariate-recovery experiments at
desk scale, plus exhaustive oracle and identifiability verification sweeps.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import oracle as oracle_mod
from .ci_test import DEFAULT_ALPHA
from .discovery import X_TO_Y, bivariate_direction, discover
from .graphs import (
    Dag,
    _run_separation_plan,
    _statement_order,
    enumerate_dags,
    icm_unroll,
)
from .sampling import (
    EXPERIMENT_PRIOR,
    EnvDataset,
    MixturePrior,
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


def default_binary_prior(g: Dag) -> MixturePrior:
    """Multivariate experiment prior: every node is a Ber(psi) flip xor the
    parity of its parents with psi ~ Beta(1, 3), extending the bivariate
    benchmark's mechanism to arbitrary binary graphs.  Independent Beta
    draws per CPT column give every column the same mean, so no edge can be
    found: with each column's Beta(1, 3) replaced by the 2-point atoms that
    match its moments up to order 3, oracle discovery at two samples per
    environment returns the empty graph on fork3, collider3 and chain4,
    where these xor atoms recover all three."""
    return MixturePrior((EXPERIMENT_PRIOR,) * g.d)


def derive_seed(*parts: int) -> int:
    """Stable sub-seed derivation for repeat/grid indexing."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _stable_tag(name: str) -> int:
    return int.from_bytes(name.encode()[:6], "big")


# the oracle and identifiability sweeps' unrolled graphs and exact models
VERIFY_SAMPLES_PER_ENV = 2
VERIFY_MAX_CONDITION_SIZE = 3


@dataclass
class ExperimentConfig:
    """A sweep's settings.  Unset `repeats` and `env_grid` take the desk or
    `paper_scale` defaults, which are decided here and in the runners."""

    env_grid: Tuple[int, ...] = ()
    graphs: Tuple[str, ...] = ()
    samples_per_env: int = 2
    repeats: Optional[int] = None
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    paper_scale: bool = False
    out_dir: Optional[str] = None

    def __post_init__(self):
        self.env_grid = tuple(int(e) for e in self.env_grid)
        if self.repeats is None:
            self.repeats = 100 if self.paper_scale else 20
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if any(e < 1 for e in self.env_grid):
            raise ValueError(f"environment counts must be >= 1, got {self.env_grid}")
        if self.seed < 0:  # numpy seeds are nonnegative
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples_per_env < 2:  # discovery's cross-sample tests read sample 1
            raise ValueError(f"samples_per_env must be >= 2, got {self.samples_per_env}")
        for name in self.graphs:  # before a sweep runs any earlier graph
            preset_graph(name)


# ---------------------------------------------------------------------------
# dataset CSV round trip


def write_dataset_csv(ds: EnvDataset, path) -> None:
    """Write `env,sample,X1..Xd` rows (CRLF line ends, environments in order)
    straight from the dataset's `rows`/`offsets` layout, plus the JSON
    sidecar `<path>.meta.json`.

    The bytes are those of `csv.writer` on one row of Python ints per
    sample, built without a per-row loop: the (rows, 2 + d) int64 table is
    formatted one column at a time into a uint8 array that gives each field
    its column's maximum number of decimal digits, followed by `,` (or
    `\r\n` after the last field), and a boolean mask then drops each
    field's leading zeros.  Every value is a non-negative integer, which
    `EnvDataset` guarantees.
    """
    path = Path(path)
    sizes = np.diff(ds.offsets)
    env = np.repeat(np.arange(ds.n_envs), sizes)
    sample = np.arange(ds.rows.shape[0]) - np.repeat(ds.offsets[:-1], sizes)
    table = np.column_stack((env, sample, ds.rows))
    widths = [len(str(int(m))) for m in table.max(axis=0)]
    text = np.full((table.shape[0], sum(widths) + table.shape[1] + 1), ord(","), np.uint8)
    keep = np.ones(text.shape, bool)
    start = 0
    for column, width in zip(table.T, widths):
        rest = column
        for power in range(width - 1, 0, -1):
            keep[:, start] = column >= 10**power
            digit, rest = np.divmod(rest, 10**power)
            text[:, start] = digit + ord("0")
            start += 1
        text[:, start] = rest + ord("0")
        start += 2  # past the separator
    text[:, -2:] = (ord("\r"), ord("\n"))
    header = ",".join(["env", "sample"] + [f"X{i + 1}" for i in range(ds.d)])
    with path.open("wb") as fh:
        fh.write(f"{header}\r\n".encode())
        fh.write(text[keep])
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
        too_big = [int(v) for v in row if not -(2**63) <= int(v) < 2**63]
        if too_big:
            return CsvFormatError(
                f"{path}:{lineno}: value {too_big[0]} does not fit a 64-bit integer"
            )
    return CsvFormatError(f"{path}: {parse_error}")


def ingest_csv(path) -> EnvDataset:
    """Parse the `env,sample,X1..Xd` dataset format, with its JSON sidecar
    (cardinalities, seed, true graph) when present.

    The data rows are parsed in one `np.loadtxt` call and sorted by
    (env, sample); environments come out in increasing `env` order.  One
    vectorised check first asks whether the (env, sample) keys are already
    non-decreasing, as in every file `write_dataset_csv` produces; such a
    file is taken in file order, since a stable sort would not move a row,
    and any other file is stable-sorted with `np.lexsort`.  A file is
    rejected with `CsvFormatError` naming `path:line` for a row with the
    wrong number of columns, a value that is not a plain decimal integer or
    that does not fit a 64-bit integer, a repeated (env, sample) pair (the
    second occurrence), sample indices that do not run 0..N_e-1 within an
    environment, and a value that is negative or not below its variable's
    cardinality (from the sidecar, or the column maximum plus one without
    one; a value of 2**63 - 1 is rejected there, since that cardinality
    would not fit a 64-bit integer).  A sidecar that is not a JSON object,
    whose `cardinalities` are not d integers >= 1 or hold one that does not
    fit a 64-bit integer, or whose `true_graph` is malformed or not over d
    nodes is rejected with `CsvFormatError` naming the sidecar.
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
                too_big = [k for k in cardinalities if k >= 2**63]
                if too_big:
                    raise ValueError(f"cardinality {too_big[0]} does not fit a 64-bit integer")
                cardinalities = tuple(cardinalities)
            if meta.get("true_graph"):
                true_graph = Dag.from_dict(meta["true_graph"])
                if true_graph.d != d:
                    raise ValueError(f"true_graph has {true_graph.d} nodes for {d} variables")
        except (KeyError, TypeError, ValueError) as err:  # JSONDecodeError is a ValueError
            raise CsvFormatError(f"{sidecar_path}: {type(err).__name__}: {err}") from None

    # row r of `table` is line r + 2 of the file, and sorted row i is file row order[i]
    env, sample = table[:, 0], table[:, 1]
    same_env = env[1:] == env[:-1]
    if ((env[1:] > env[:-1]) | (same_env & (sample[1:] >= sample[:-1]))).all():
        order = np.arange(len(table))  # a stable sort of sorted keys is the identity
    else:
        order = np.lexsort((sample, env))  # stable: repeats keep file order
        env, sample = env[order], sample[order]
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
        top = values.max(axis=0)
        if (top == np.iinfo(np.int64).max).any():  # its cardinality would be 2**63
            r, i = (int(x) for x in np.argwhere(values == np.iinfo(np.int64).max)[0])
            raise CsvFormatError(
                f"{path}:{r + 2}: env {table[r, 0]}: variable {i} ({header[i + 2]}) value "
                f"{values[r, i]} needs cardinality 2**63, which does not fit a 64-bit integer"
            )
        cardinalities = tuple(int(m) + 1 for m in top)
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
        if bivariate_direction(ds) == X_TO_Y:
            correct += 1
    return {"n_envs": n_envs, "repeats": cfg.repeats, "correct_fraction": correct / cfg.repeats}


def run_bivariate_sweep(cfg: ExperimentConfig) -> List[dict]:
    """Correct-direction fraction of the three-hypothesis decision on the
    xor benchmark, per environment count."""
    default = tuple(range(100, 4001, 100)) if cfg.paper_scale else (500, 2000, 4000)
    cfg = replace(cfg, env_grid=cfg.env_grid or default)
    out = _make_out_dir(cfg.out_dir)
    rows = [_bivariate_point(n_envs, cfg) for n_envs in sorted(cfg.env_grid)]
    if out:
        config = asdict(cfg)
        del config["graphs"], config["alpha"]  # the xor graph only; no verdict reads alpha
        fields = ["n_envs", "repeats", "correct_fraction"]
        _write_sweep(out, config, rows, "bivariate_sweep.csv", fields)
    return rows


# ---------------------------------------------------------------------------
# multivariate recovery


def _multivariate_graph(cfg: ExperimentConfig, name: str, n_envs: int) -> dict:
    """One graph's repeats, each one discovery with `force`.  A repeat
    whose sink order records a forced placement counts in `deadlocks`; its
    graph, from the repaired order, counts in the recovery rates.  Up to its
    first deadlocked sweep a forced run makes the strict run's tests, so a
    repeat counts exactly when `force=False` would raise."""
    g = preset_graph(name)
    prior = default_binary_prior(g)
    exact = 0
    edge_hits = {e: 0 for e in sorted(g.edges)}
    deadlocks = 0
    for r in range(cfg.repeats):
        seed = derive_seed(cfg.seed, _stable_tag(name), r)
        ds = sample_dataset(g, prior, n_envs, cfg.samples_per_env, seed)
        result = discover(ds, alpha=cfg.alpha, force=True)
        deadlocks += bool(result.sink_order.forced)
        if result.graph == g:
            exact += 1
        for e in edge_hits:
            if e in result.graph.edges:
                edge_hits[e] += 1
    return {
        "graph": name,
        "n_envs": n_envs,
        "repeats": cfg.repeats,
        "graph_recovery": exact / cfg.repeats,
        "edge_recovery": {f"{u}->{v}": hits / cfg.repeats for (u, v), hits in edge_hits.items()},
        "deadlocks": deadlocks,
    }


def default_env_count(name: str, paper_scale: bool) -> int:
    g = preset_graph(name)
    if g.d <= 3:
        return 10_000
    return 100_000 if paper_scale else 20_000


def run_multivariate(cfg: ExperimentConfig) -> List[dict]:
    """Full-graph and per-edge recovery rates for the preset graphs, at
    `env_grid`'s environment counts and then `default_env_count`'s."""
    names = cfg.graphs or ("fork3", "collider3", "chain4", "diamond4")
    if len(cfg.env_grid) > len(names):
        raise ValueError(f"{len(cfg.env_grid)} environment counts for {len(names)} graphs")
    grid = cfg.env_grid + tuple(
        default_env_count(name, cfg.paper_scale) for name in names[len(cfg.env_grid):]
    )
    cfg = replace(cfg, graphs=names, env_grid=grid)
    out = _make_out_dir(cfg.out_dir)
    rows = [_multivariate_graph(cfg, name, n_envs) for name, n_envs in zip(names, grid)]
    rows.sort(key=lambda r: r["graph"])
    if out:
        flat = [dict(r, edge_recovery=json.dumps(r["edge_recovery"], sort_keys=True)) for r in rows]
        _write_sweep(
            out, asdict(cfg), flat, "multivariate.csv",
            ["graph", "n_envs", "repeats", "graph_recovery", "deadlocks", "edge_recovery"],
        )
    return rows


# ---------------------------------------------------------------------------
# oracle verification sweep


def run_oracle_sweep(
    d: int, models_per_graph: int = 5, seed: int = 0, out_dir: Optional[str] = None
) -> dict:
    """Exhaustive check over all DAGs on d nodes: exact distributions are
    Markov to the unrolled graph, generically faithful, their independence
    sets match the graph's, and the unrolled independence sets are pairwise
    distinct across DAGs."""
    if models_per_graph < 1:
        raise ValueError(f"models_per_graph must be >= 1, got {models_per_graph}")
    out = _make_out_dir(out_dir)
    dags = enumerate_dags(d)
    rng = np.random.default_rng(seed)
    graph_reports = []
    for g in dags:
        markov_ok = True
        faithful_count = 0
        bridge_count = 0
        for _ in range(models_per_graph):
            model = oracle_mod.random_generic_model(g, VERIFY_SAMPLES_PER_ENV, rng)
            report = oracle_mod.verify_markov_faithful(model, VERIFY_MAX_CONDITION_SIZE)
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
    n_distinct = len({_separation_bits(g, VERIFY_MAX_CONDITION_SIZE) for g in dags})
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


def run_identifiability(d: int = 3, out_dir: Optional[str] = None) -> dict:
    """Partition all DAGs on d nodes into classes: by unrolled independence
    sets (expected all singletons) and by classical skeleton/v-structure
    equivalence (expected coarser)."""
    out = _make_out_dir(out_dir)
    dags = enumerate_dags(d)
    icm_sizes = Counter(_separation_bits(g, d) for g in dags).values()
    # classical equivalence is exactly equality of (skeleton, v-structures)
    iid_sizes = Counter((g.skeleton(), g.v_structures()) for g in dags).values()

    result = {
        "d": d,
        "n_dags": len(dags),
        "icm_class_sizes": sorted(icm_sizes),
        "iid_class_count": len(iid_sizes),
        "iid_class_sizes": sorted(iid_sizes),
    }
    if out:
        (out / "identifiability.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


# ---------------------------------------------------------------------------
# helpers


def _separation_bits(g: Dag, max_condition_size: int) -> bytes:
    """The separation verdicts of `g` unrolled, packed in the cached
    enumeration's order: equal for two DAGs on d nodes iff their `ci_set`s
    are, at 1,232 bytes a DAG on 5 nodes against up to 4,500 statements."""
    m = icm_unroll(g, VERIFY_SAMPLES_PER_ENV)
    plan = _statement_order(m.nodes, max_condition_size)[2]
    return np.packbits(_run_separation_plan(m, plan)).tobytes()


def _make_out_dir(out_dir: Optional[str]) -> Optional[Path]:
    """The output directory, created before any repeat runs, so that a path
    that cannot be a directory fails at once rather than after the sweep."""
    if not out_dir:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sweep(out: Path, config: dict, rows: List[dict], csv_name: str, fields: List[str]):
    """The sweep's CSV and its manifest, which records `config` as run."""
    with (out / csv_name).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})
    manifest = {"config": config, "output": csv_name}
    (out / (csv_name.rsplit(".", 1)[0] + "_manifest.json")).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
