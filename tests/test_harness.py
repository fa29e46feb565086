import csv
import hashlib
import json
import re

import numpy as np
import pytest

from exdag import cli, harness, oracle
from exdag.cli import main
from exdag.graphs import Dag, ci_set, enumerate_dags, icm_unroll
from exdag.harness import (
    CsvFormatError,
    ExperimentConfig,
    derive_seed,
    discover_file,
    ingest_csv,
    preset_graph,
    write_dataset_csv,
)
from exdag.discovery import NoSinkFoundError, discover
from exdag.sampling import (
    AtomMixturePrior,
    DirichletColumnsPrior,
    EnvDataset,
    MixturePrior,
    bivariate_xor_model,
    sample_dataset,
)


def _ragged(ds: EnvDataset, seed: int) -> EnvDataset:
    """`ds` with each environment cut to its first 2-4 samples."""
    keep = np.random.default_rng(seed).integers(2, 5, size=ds.n_envs)
    return EnvDataset(
        ds.d,
        ds.cardinalities,
        [rows[:k] for rows, k in zip(ds.envs, keep)],
        true_graph=ds.true_graph,
        seed=ds.seed,
        prior_description=ds.prior_description,
    )


class TestPresets:
    def test_known_graphs(self):
        assert preset_graph("fork3") == Dag(3, frozenset({(0, 1), (0, 2)}))
        assert preset_graph("collider3") == Dag(3, frozenset({(1, 0), (2, 0)}))
        assert preset_graph("chain4").d == 4

    def test_unknown_graph(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_graph("pentagon")

    def test_seed_tags_distinct(self):
        # a sweep seeds each graph's repeats by its name's tag, so two names
        # with one tag would share their data
        tags = {harness._stable_tag(name) for name in harness.PRESET_GRAPHS}
        assert len(tags) == len(harness.PRESET_GRAPHS)

    def test_default_prior_covers_graph(self):
        g = preset_graph("chain4")
        prior = harness.default_binary_prior(g)
        assert prior.d == 4
        assert prior.cardinalities == (2, 2, 2, 2)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 25, 3, 11)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = ingest_csv(path)
        assert back.d == ds.d
        assert back.cardinalities == ds.cardinalities
        assert back.true_graph == ds.true_graph
        assert back.seed == ds.seed
        assert all(np.array_equal(a, b) for a, b in zip(back.envs, ds.envs))

    def test_numpy_integer_seed_written_as_int(self, tmp_path):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 5, 2, np.int64(3))
        assert type(ds.seed) is int and ds.seed == 3
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        assert ingest_csv(path).seed == 3

    def test_without_sidecar_infers_cardinalities(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("env,sample,X1,X2\n0,0,0,2\n0,1,1,0\n1,0,0,1\n1,1,1,1\n")
        ds = ingest_csv(path)
        assert ds.cardinalities == (2, 3)
        assert ds.true_graph is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar,X1\n0,0,1\n")
        with pytest.raises(CsvFormatError, match="header"):
            ingest_csv(path)

    def test_wrong_column_count_is_line_numbered(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("env,sample,X1,X2\n0,0,1,0\n0,1,1\n")
        with pytest.raises(CsvFormatError, match=":3:"):
            ingest_csv(path)

    def test_non_integer_value(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("env,sample,X1\n0,0,one\n")
        with pytest.raises(CsvFormatError, match="non-integer"):
            ingest_csv(path)

    def test_value_beyond_int64_is_line_numbered(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("env,sample,X1\n0,0,1\n0,1,99999999999999999999\n")
        with pytest.raises(
            CsvFormatError, match=r"big\.csv:3: value 99999999999999999999 does not fit a 64-bit"
        ):
            ingest_csv(path)

    def test_inferred_cardinality_beyond_int64_is_line_numbered(self, tmp_path):
        # the largest int64 parses, but its column's cardinality would be 2**63
        path = tmp_path / "huge.csv"
        path.write_text(f"env,sample,X1,X2\n0,0,1,0\n0,1,1,{2**63 - 1}\n1,0,{2**63 - 1},0\n")
        with pytest.raises(
            CsvFormatError,
            match=rf"huge\.csv:3: env 0: variable 1 \(X2\) value {2**63 - 1} needs cardinality "
            r"2\*\*63, which does not fit a 64-bit integer",
        ):
            ingest_csv(path)

    def test_sidecar_cardinality_beyond_int64_names_sidecar(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("env,sample,X1,X2\n0,0,1,0\n0,1,0,1\n")
        sidecar = tmp_path / "data.csv.meta.json"
        sidecar.write_text(json.dumps({"cardinalities": [2, 2**70]}))
        with pytest.raises(
            CsvFormatError,
            match=rf"data\.csv\.meta\.json: ValueError: cardinality {2**70} does not fit a 64-bit",
        ):
            ingest_csv(path)
        # the largest cardinality that fits is accepted
        sidecar.write_text(json.dumps({"cardinalities": [2, 2**63 - 1]}))
        assert ingest_csv(path).cardinalities == (2, 2**63 - 1)

    def test_non_contiguous_samples(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("env,sample,X1\n0,0,1\n0,2,0\n")
        with pytest.raises(CsvFormatError, match="non-contiguous"):
            ingest_csv(path)

    def test_non_contiguous_samples_line_numbered(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("env,sample,X1\n3,0,1\n0,0,0\n3,2,0\n0,1,1\n")
        with pytest.raises(CsvFormatError, match=r"gap\.csv:4: environment 3 has non-contiguous"):
            ingest_csv(path)

    def test_blank_line_is_line_numbered(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("env,sample,X1\n0,0,1\n\n0,1,0\n")
        with pytest.raises(CsvFormatError, match=r"blank\.csv:3: expected 3 columns, got 0"):
            ingest_csv(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("env,sample,X1,X2\n0,0,1,0\n0,1,1,0\n0,1,1,1\n")
        with pytest.raises(CsvFormatError, match=r"dup\.csv:4: repeats env 0, sample 1"):
            ingest_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("env,sample,X1,X2\n7,0,1,0\n7,1,1,0\n2,0,0,-1\n2,1,0,0\n")
        with pytest.raises(
            CsvFormatError, match=r"neg\.csv:4: env 2: variable 1 \(X2\) value -1 out of range"
        ):
            ingest_csv(path)

    @pytest.mark.parametrize("value", [2, 5])
    def test_value_at_or_above_sidecar_cardinality_rejected(self, tmp_path, value):
        path = tmp_path / "big.csv"
        path.write_text(f"env,sample,X1,X2\n0,0,1,0\n0,1,{value},1\n")
        (tmp_path / "big.csv.meta.json").write_text(json.dumps({"cardinalities": [2, 2]}))
        with pytest.raises(
            CsvFormatError,
            match=rf"big\.csv:3: env 0: variable 0 \(X1\) value {value} out of range \[0, 2\)",
        ):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "sidecar, reason",
        [
            ("[2, 2, 2]", "expected a JSON object"),
            ('{"cardinalities": [2, "x", 2]}', "expected 3 integers >= 1"),
            ('{"cardinalities": 3}', "expected 3 integers >= 1"),
            ('{"cardinalities": [2, 2.5, 2]}', "expected 3 integers >= 1"),
            ('{"cardinalities": [2, true, 2]}', "expected 3 integers >= 1"),
            ('{"cardinalities": [2, 0, 2]}', "expected 3 integers >= 1"),
            ('{"cardinalities": [2, 2]}', "expected 3 integers >= 1"),
            ('{"true_graph": {"d": 5, "edges": [[0, 4]]}}', "true_graph has 5 nodes for 3"),
            ('{"true_graph": {"d": 3}}', "KeyError"),
            ('{"cardinalities": [2, 2, 2]', "JSONDecodeError"),
        ],
        ids=["list", "string_cardinality", "scalar", "fraction", "bool", "zero", "too_few",
             "graph_size", "graph_without_edges", "malformed_json"],
    )
    def test_bad_sidecar_names_it(self, tmp_path, sidecar, reason):
        path = tmp_path / "data.csv"
        path.write_text("env,sample,X1,X2,X3\n0,0,1,0,1\n0,1,0,1,1\n")
        (tmp_path / "data.csv.meta.json").write_text(sidecar)
        with pytest.raises(CsvFormatError, match=r"data\.csv\.meta\.json: .*" + reason):
            ingest_csv(path)

    def test_writer_matches_csv_module(self, tmp_path):
        g, prior = bivariate_xor_model()
        # env ids across 9->10, 99->100 and 999->1000, ragged sample counts
        # across 9->10, codes of one and two digits, and a variable always 0
        rng = np.random.default_rng(4)
        wide = EnvDataset(
            3,
            (12, 1, 2),
            [rng.integers(0, (12, 1, 2), size=(n, 3)) for n in rng.integers(1, 13, size=1003)],
        )
        for ds in (_ragged(sample_dataset(g, prior, 30, 4, 2), seed=3), wide):
            path = tmp_path / "new.csv"
            write_dataset_csv(ds, path)
            ref = tmp_path / "ref.csv"
            with ref.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["env", "sample"] + [f"X{i + 1}" for i in range(ds.d)])
                for e, rows in enumerate(ds.envs):
                    for n in range(rows.shape[0]):
                        writer.writerow([e, n] + [int(v) for v in rows[n]])
            assert path.read_bytes() == ref.read_bytes()

    def test_sorted_and_shuffled_files_ingest_alike(self, tmp_path, monkeypatch):
        # a file in (env, sample) order is taken as it stands; any other is
        # stable-sorted, and both must give the same dataset
        lexsorts, lexsort = [], np.lexsort

        def counting_lexsort(keys):
            lexsorts.append(keys)
            return lexsort(keys)

        monkeypatch.setattr(harness.np, "lexsort", counting_lexsort)
        g, prior = bivariate_xor_model()
        ds = _ragged(sample_dataset(g, prior, 40, 4, 9), seed=10)
        path = tmp_path / "sorted.csv"
        write_dataset_csv(ds, path)
        header, *data = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        order = np.random.default_rng(11).permutation(len(data))
        shuffled.write_text("\n".join([header] + [data[i] for i in order]) + "\n")
        # sorted but for the last row, and in env order with two samples swapped
        last_out = tmp_path / "last_out.csv"
        last_out.write_text("\n".join([header] + data[1:] + data[:1]) + "\n")
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("\n".join([header, data[1], data[0]] + data[2:]) + "\n")
        expected = ingest_csv(path)
        assert not lexsorts
        for other in (shuffled, last_out, swapped):
            back = ingest_csv(other)
            assert np.array_equal(back.rows, expected.rows)
            assert np.array_equal(back.offsets, expected.offsets)
        assert len(lexsorts) == 3
        assert np.array_equal(expected.rows, ds.rows)
        assert np.array_equal(expected.offsets, ds.offsets)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,0,1\n0,0,0\n0,0,1\n", r"sorted\.csv:3: repeats env 0, sample 0"),
            ("0,0,1\n0,1,0\n1,0,0\n1,2,1\n", r"sorted\.csv:5: environment 1 has non-contiguous"),
            ("0,1,1\n1,0,0\n", r"sorted\.csv:2: environment 0 has non-contiguous"),
        ],
        ids=["triple", "gap", "first_gap"],
    )
    def test_sorted_file_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "sorted.csv"
        path.write_text("env,sample,X1\n" + text)
        with pytest.raises(CsvFormatError, match=message):
            ingest_csv(path)


class TestProducerLayout:
    """`sample_dataset` and `ingest_csv` hand their `rows`/`offsets` to the
    dataset directly; the result must equal the list constructor's."""

    @pytest.mark.parametrize("ragged", [False, True])
    def test_matches_list_constructor(self, tmp_path, ragged):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        prior = MixturePrior(tuple(DirichletColumnsPrior((0.5,) * k) for k in (3, 2, 4)))
        sampled = sample_dataset(g, prior, 40, 4, 7)
        ds = _ragged(sampled, seed=8) if ragged else sampled
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        produced = [ingest_csv(path)] + ([] if ragged else [sampled])
        coords = [(2, 1), (0, 0), (1, 1)]
        for built in produced:
            ref = EnvDataset(built.d, built.cardinalities, [rows.copy() for rows in ds.envs])
            assert np.array_equal(built.rows, ref.rows)
            assert np.array_equal(built.offsets, ref.offsets)
            assert len(built.envs) == len(ref.envs)
            assert all(np.array_equal(a, b) for a, b in zip(built.envs, ref.envs))
            assert all(np.shares_memory(rows, built.rows) for rows in built.envs)
            assert built.min_samples == ref.min_samples
            assert np.array_equal(built.values_at(coords), ref.values_at(coords))

    @pytest.mark.parametrize(
        "envs, message",
        [([np.array([[0, 1]]), np.zeros((0, 2), dtype=np.int64)], "environment 1 is empty")],
    )
    def test_same_rejections_as_list_constructor(self, envs, message):
        rows = np.concatenate(envs)
        offsets = np.concatenate(([0], np.cumsum([len(a) for a in envs])))
        with pytest.raises(ValueError, match=message):
            EnvDataset(2, (2, 2), envs)
        with pytest.raises(ValueError, match=message):
            EnvDataset._from_rows(2, (2, 2), rows, offsets)

    def test_range_checked_on_list_input_only(self):
        # the producers' values are in range by construction (ingest_csv
        # checks them with a file:line message), so only the list input is checked
        envs = [np.array([[0, 1]]), np.array([[1, 2]])]
        with pytest.raises(ValueError, match=r"environment 1: variable 1 value out of range"):
            EnvDataset(2, (2, 2), envs)
        ds = EnvDataset._from_rows(2, (2, 2), np.concatenate(envs), np.array([0, 1, 2]))
        assert ds.n_envs == 2


class TestPinnedRaggedDiscovery:
    """Discovery on fixed ragged datasets, round-tripped through CSV, must
    serialize to exactly the bytes recorded before the dataset layout became
    one array: same statements, G, dof, p-values and graph."""

    @pytest.mark.parametrize(
        "name, n_envs, digest",
        [
            ("diamond4", 3000, "0275ffee8f10f993e1f8f5db044e9486f1ce0851199bcb9f15538df415bd7f29"),
            ("mixed4", 1500, "af0aa6c5ef2f76cf9bc89459b0974df98b6e099c2ebe3c55f2352fe53e9374c5"),
        ],
    )
    def test_result_bytes_unchanged(self, tmp_path, name, n_envs, digest):
        if name == "mixed4":
            g = Dag(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
            prior = MixturePrior(tuple(DirichletColumnsPrior((0.5,) * k) for k in (3, 2, 3, 2)))
        else:
            g = preset_graph(name)
            prior = harness.default_binary_prior(g)
        ds = _ragged(sample_dataset(g, prior, n_envs, 4, 5), seed=6)
        path = tmp_path / "ragged.csv"
        write_dataset_csv(ds, path)
        result = discover(ingest_csv(path), force=True)
        text = json.dumps(result.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDiscoverFile:
    def test_round_trip_discovery(self, tmp_path):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 4000, 2, 0)
        path = tmp_path / "biv.csv"
        write_dataset_csv(ds, path)
        result = discover_file(path)
        assert result.graph == g

    def test_single_sample_refused(self, tmp_path):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 50, 1, 0)
        path = tmp_path / "one.csv"
        write_dataset_csv(ds, path)
        with pytest.raises(ValueError, match="2 samples"):
            discover_file(path)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            ExperimentConfig(repeats=0)
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(alpha=1.5)

    def test_envs_and_samples_rejected_before_sampling(self, monkeypatch):
        monkeypatch.setattr(harness, "sample_dataset", pytest.fail)
        with pytest.raises(ValueError, match=r"environment counts must be >= 1, got \(100, 0\)"):
            ExperimentConfig(env_grid=(100, 0))
        with pytest.raises(ValueError, match="samples_per_env must be >= 2, got 1"):
            harness.run_multivariate(ExperimentConfig(samples_per_env=1))
        with pytest.raises(ValueError, match="samples_per_env must be >= 2"):
            ExperimentConfig(samples_per_env=0, env_grid=(1,))

    def test_negative_seed_rejected_at_construction(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "sample_dataset", pytest.fail)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            harness.run_multivariate(ExperimentConfig(seed=-1, out_dir=str(tmp_path / "sm")))
        assert not (tmp_path / "sm").exists()

    def test_unknown_graph_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"unknown preset graph 'chain5'; options: \["):
            ExperimentConfig(env_grid=(100, 100), graphs=("fork3", "chain5"))

    def test_repeats_default_by_scale(self):
        assert ExperimentConfig().repeats == 20
        assert ExperimentConfig(paper_scale=True).repeats == 100
        assert ExperimentConfig(paper_scale=True, repeats=3).repeats == 3


class TestBivariateSweep:
    def test_deterministic_and_written(self, tmp_path):
        cfg = ExperimentConfig(env_grid=(200,), repeats=3, seed=0, out_dir=str(tmp_path))
        rows1 = harness.run_bivariate_sweep(cfg)
        rows2 = harness.run_bivariate_sweep(cfg)
        assert rows1 == rows2
        assert (tmp_path / "bivariate_sweep.csv").exists()
        manifest = json.loads((tmp_path / "bivariate_sweep_manifest.json").read_text())
        assert manifest["config"]["seed"] == 0

    @pytest.mark.parametrize(
        "paper_scale, grid", [(False, [500, 2000, 4000]), (True, list(range(100, 4001, 100)))]
    )
    def test_default_grid_recorded(self, tmp_path, monkeypatch, paper_scale, grid):
        monkeypatch.setattr(harness, "_bivariate_point", lambda n_envs, cfg: {
            "n_envs": n_envs, "repeats": cfg.repeats, "correct_fraction": 1.0})
        cfg = ExperimentConfig(paper_scale=paper_scale, out_dir=str(tmp_path))
        assert [row["n_envs"] for row in harness.run_bivariate_sweep(cfg)] == grid
        manifest = json.loads((tmp_path / "bivariate_sweep_manifest.json").read_text())
        assert manifest["config"]["env_grid"] == grid
        assert manifest["config"]["repeats"] == (100 if paper_scale else 20)


class TestManifestAlpha:
    """Multivariate verdicts read `alpha` and run the given graphs;
    `bivariate_direction` takes the largest p-value on the xor benchmark's
    one graph, so the bivariate manifest records neither."""

    @pytest.mark.parametrize(
        "run, point, name, has_alpha, graphs",
        [
            ("run_bivariate_sweep", "_bivariate_point", "bivariate_sweep", False, None),
            ("run_multivariate", "_multivariate_graph", "multivariate", True, ["fork3"]),
        ],
    )
    def test_alpha_recorded_only_where_read(self, tmp_path, monkeypatch, run, point, name,
                                            has_alpha, graphs):
        row = {"n_envs": 300, "repeats": 1, "correct_fraction": 1.0, "graph": "fork3",
               "graph_recovery": 1.0, "deadlocks": 0, "edge_recovery": {}}
        monkeypatch.setattr(harness, point, lambda *args: row)
        cfg = ExperimentConfig(env_grid=(300,), graphs=("fork3",), repeats=1, alpha=0.01,
                               out_dir=str(tmp_path))
        getattr(harness, run)(cfg)
        config = json.loads((tmp_path / f"{name}_manifest.json").read_text())["config"]
        assert ("alpha" in config) == has_alpha
        assert config.get("alpha", 0.01) == 0.01
        assert ("graphs" in config) == (graphs is not None)
        assert config.get("graphs") == graphs
        assert (config["repeats"], config["env_grid"]) == (1, [300])


class TestMultivariate:
    def test_small_run_structure(self, tmp_path):
        cfg = ExperimentConfig(
            env_grid=(400,), graphs=("fork3",), repeats=2, seed=0, out_dir=str(tmp_path)
        )
        rows = harness.run_multivariate(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row["graph"] == "fork3"
        assert set(row["edge_recovery"]) == {"0->1", "0->2"}
        assert 0.0 <= row["graph_recovery"] <= 1.0
        assert (tmp_path / "multivariate.csv").exists()

    def test_more_env_counts_than_graphs_rejected(self):
        cfg = ExperimentConfig(env_grid=(100, 200), graphs=("fork3",))
        with pytest.raises(ValueError, match="2 environment counts for 1 graphs"):
            harness.run_multivariate(cfg)

    def test_manifest_records_env_counts_run(self, tmp_path):
        cfg = ExperimentConfig(env_grid=(300,), graphs=("fork3", "collider3"), repeats=1,
                               out_dir=str(tmp_path))
        harness.run_multivariate(cfg)
        config = json.loads((tmp_path / "multivariate_manifest.json").read_text())["config"]
        assert config["graphs"] == ["fork3", "collider3"]
        assert config["env_grid"] == [300, 10_000]
        assert config["repeats"] == 1

    def test_deadlocks_count_repeats_whose_sink_search_deadlocks(self):
        cfg = ExperimentConfig(env_grid=(2000,), graphs=("chain4",), repeats=5, seed=0)
        (row,) = harness.run_multivariate(cfg)
        g = preset_graph("chain4")
        deadlocked = recovered = 0
        for r in range(5):
            seed = derive_seed(0, harness._stable_tag("chain4"), r)
            ds = sample_dataset(g, harness.default_binary_prior(g), 2000, 2, seed)
            try:
                discover(ds)
            except NoSinkFoundError:
                deadlocked += 1
            recovered += discover(ds, force=True).graph == g
        assert row["deadlocks"] == deadlocked >= 1
        # a deadlocked repeat's graph is the one force repairs it to
        assert row["graph_recovery"] == recovered / 5

    def test_one_gather_per_repeat(self, monkeypatch):
        # a deadlocked repeat is counted from its forced run, not rerun
        calls = []
        values_at = EnvDataset.values_at

        def counted(ds, coords):
            calls.append(list(coords))
            return values_at(ds, coords)

        monkeypatch.setattr(EnvDataset, "values_at", counted)
        cfg = ExperimentConfig(env_grid=(2000,), graphs=("chain4",), repeats=5, seed=0)
        (row,) = harness.run_multivariate(cfg)
        assert row["deadlocks"] >= 1
        assert len(calls) == 5

    def test_cli_line_reports_deadlocks(self, capsys):
        assert main(["sweep-multivariate", "--graphs", "fork3", "--envs", "200",
                     "--repeats", "1"]) == 0
        assert re.search(r"fork3 .* deadlocks=\d+ ", capsys.readouterr().out)

    def test_default_env_counts(self):
        assert harness.default_env_count("fork3", paper_scale=False) == 10_000
        assert harness.default_env_count("chain4", paper_scale=False) == 20_000
        assert harness.default_env_count("chain4", paper_scale=True) == 100_000


class TestOracleSweep:
    def test_d2_exhaustive(self):
        result = harness.run_oracle_sweep(d=2, models_per_graph=3, seed=0)
        assert result["n_dags"] == 3
        assert result["all_markov_ok"]
        assert result["icm_ci_sets_distinct"]

    @pytest.mark.parametrize("models_per_graph", [0, -1])
    def test_models_per_graph_below_1_rejected_before_enumeration(
        self, monkeypatch, tmp_path, models_per_graph
    ):
        monkeypatch.setattr(harness, "enumerate_dags", pytest.fail)
        message = f"models_per_graph must be >= 1, got {models_per_graph}"
        with pytest.raises(ValueError, match=message):
            harness.run_oracle_sweep(d=2, models_per_graph=models_per_graph,
                                     out_dir=str(tmp_path / "ov"))
        assert not (tmp_path / "ov").exists()

    def test_unfaithful_models_lower_bridge_fraction(self, monkeypatch):
        # every other model has a single atom per node: its sample copies are
        # i.i.d., so it is Markov but not faithful to the unrolled graph
        generic = oracle.random_generic_model
        models = []

        def alternate(g, samples_per_env, rng):
            model = generic(g, samples_per_env, rng)
            if len(models) % 2:
                first = [AtomMixturePrior([(1.0, p.atoms[0][1])]) for p in model.prior.node_priors]
                model = oracle.FiniteMixtureModel(g, MixturePrior(first), samples_per_env)
            models.append(model)
            return model

        monkeypatch.setattr(oracle, "random_generic_model", alternate)
        result = harness.run_oracle_sweep(d=2, models_per_graph=2, seed=0)
        assert result["all_markov_ok"]
        for row, pair in zip(result["graphs"], zip(models[::2], models[1::2])):
            g = Dag.from_dict(row["graph"])
            want = ci_set(icm_unroll(g, 2), 3)
            bridged = [oracle.true_ci_set(model, 3) == want for model in pair]
            assert bridged == [True, False]
            assert row["bridge_fraction"] == 0.5
            assert row["faithful_fraction"] == 0.5

    def test_separation_bits_pinned_on_every_4_node_dag(self):
        # every unrolled separation verdict of all 543 DAGs on 4 nodes, in
        # the cached enumeration's order, at condition sizes 4 and 3
        dags = enumerate_dags(4)
        for k, want in (
            (4, "8b92d31991ee33760f1d3bf7852388d9c05f7eb5d94a42ef75e9bbc3695bda33"),
            (3, "6c670654261a721cc909e6e2929f6b886de9e2e59325d0266bafddfeb4138959"),
        ):
            bits = b"".join(harness._separation_bits(g, k) for g in dags)
            assert hashlib.sha256(bits).hexdigest() == want

    def test_identifiability_d2(self):
        result = harness.run_identifiability(d=2)
        assert result["n_dags"] == 3
        assert result["icm_class_sizes"] == [1, 1, 1]
        # classically X->Y and X<-Y are indistinguishable
        assert result["iid_class_count"] == 2
        assert result["iid_class_sizes"] == [1, 2]


class TestCli:
    def test_simulate_then_discover(self, tmp_path, capsys):
        csv_path = tmp_path / "sim.csv"
        assert main([
            "simulate", "--graph", "fork3", "--envs", "400",
            "--seed", "3", "--out", str(csv_path),
        ]) == 0
        assert csv_path.exists()
        out_json = tmp_path / "res.json"
        assert main([
            "discover", "--in", str(csv_path), "--force", "--out", str(out_json),
        ]) == 0
        result = json.loads(out_json.read_text())
        assert Dag.from_dict(result["graph"]).d == 3

    def test_force_names_each_repair_on_stderr(self, tmp_path, capsys):
        csv_path, out_json = tmp_path / "dl.csv", tmp_path / "res.json"
        assert main(["simulate", "--graph", "chain4", "--envs", "2000", "--seed", "8",
                     "--out", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["discover", "--in", str(csv_path)]) == 2
        assert "discovery failed: no sink found" in capsys.readouterr().err
        assert main(["discover", "--in", str(csv_path), "--force"]) == 0
        out, err = capsys.readouterr()
        result = discover_file(csv_path, force=True)
        assert json.loads(out) == result.to_dict()
        assert err.splitlines() == [
            f"discovery forced: sweep {sweep} found no sink; placed variable {variable}, "
            f"minimum p-value {p:.4g}"
            for sweep, variable, p in result.sink_order.forced
        ]
        assert len(result.sink_order.forced) == 2
        assert main(["discover", "--in", str(csv_path), "--force", "--out", str(out_json)]) == 0
        assert out_json.read_text() == out

    @pytest.mark.parametrize("command", ["bivariate", "sweep-bivariate"])
    def test_alpha_only_where_a_verdict_reads_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--alpha", "0.05"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 0.05" in capsys.readouterr().err

    def test_bivariate_command(self, tmp_path, capsys):
        csv_path = tmp_path / "biv.csv"
        main(["simulate", "--graph", '{"d": 2, "edges": [[0, 1]]}', "--prior", "xor",
              "--envs", "3000", "--seed", "0", "--out", str(csv_path)])
        capsys.readouterr()
        assert main(["bivariate", "--in", str(csv_path)]) == 0
        assert capsys.readouterr().out.strip() == "X->Y"

    def test_unknown_prior_spec_names_it(self, tmp_path):
        with pytest.raises(SystemExit, match="beta:1,3"):
            main(["simulate", "--graph", "fork3", "--prior", "beta:1,3",
                  "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("fork9", "JSONDecodeError"),
            ('{"d":2,"edges":[[0,1],[1,0]]}', "graph contains a directed cycle"),
            ('{"d": -1, "edges": []}', "ValueError: d must be >= 1, got -1"),
            ('{"d": 0, "edges": []}', "ValueError: d must be >= 1, got 0"),
            ('{"d": 2.5, "edges": [[0, 1]]}', "TypeError: d must be an integer, got 2.5"),
            ('{"d": true, "edges": []}', "TypeError: d must be an integer, got True"),
        ],
        ids=["unknown_preset", "cyclic", "negative_d", "zero_d", "float_d", "bool_d"],
    )
    def test_bad_graph_spec_names_it(self, tmp_path, spec, reason):
        with pytest.raises(SystemExit, match=re.escape(repr(spec)) + ".*" + reason):
            main(["simulate", "--graph", spec, "--out", str(tmp_path / "x.csv")])

    def test_inline_specs_longer_than_a_file_name(self, tmp_path):
        # a spec past NAME_MAX (255 bytes) cannot name a file, so it is inline JSON
        g = Dag(12, frozenset((i, j) for i in range(12) for j in range(i + 1, 12) if j - i < 4))
        graph_spec = json.dumps(g.to_dict())
        prior_spec = json.dumps([{"kind": "xor_beta", "a": 1, "b": 3}] * g.d)
        assert len(graph_spec) > 255 and len(prior_spec) > 255
        csv_path = tmp_path / "long.csv"
        assert main(["simulate", "--graph", graph_spec, "--prior", prior_spec,
                     "--envs", "5", "--out", str(csv_path)]) == 0
        assert ingest_csv(csv_path).d == 12

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind": "beta"}',
            '[{"kind": "xor_beta", "a": 1, "b": 3}]',
            '[{"kind": "xor_beta", "a": 1, "b": 3}, {"kind": "xor_beta", "b": 3}, 3]',
            '[{"kind": "xor_beta", "a": 1, "b": 3}, {"kind": "gamma"}, 3]',
            '[{"kind": "xor_beta", "a": 1, "b": 3}, {"kind": "beta", "a": 1, "b": 3}, 3]',
        ],
        ids=["object", "too_few_nodes", "missing_field", "unknown_kind", "removed_beta_kind"],
    )
    def test_wrong_shape_prior_spec_names_it(self, tmp_path, spec):
        with pytest.raises(SystemExit, match=re.escape(repr(spec))):
            main(["simulate", "--graph", "fork3", "--prior", spec,
                  "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize(
        "spec",
        [
            json.dumps([
                {"kind": "xor_beta", "a": 1, "b": 3},
                {"kind": "atoms", "atoms": [{"weight": 1, "cpt": [[0.5], [0.5]]}]},
                {"kind": "xor_beta", "a": 1, "b": 3},
            ]),
            json.dumps([
                {"kind": "dirichlet", "alpha": [1, 1, 1]},
                {"kind": "xor_beta", "a": 1, "b": 3},
                {"kind": "xor_beta", "a": 1, "b": 3},
            ]),
        ],
        ids=["atom_columns", "xor_under_ternary_root"],
    )
    def test_prior_not_fitting_graph_names_node(self, tmp_path, spec):
        with pytest.raises(SystemExit, match=re.escape(repr(spec)) + ".*node 1"):
            main(["simulate", "--graph", "fork3", "--prior", spec,
                  "--out", str(tmp_path / "x.csv")])

    def test_non_finite_prior_names_node(self, tmp_path):
        spec = '[{"kind": "xor_beta", "a": NaN, "b": 3}, {"kind": "xor_beta", "a": 1, "b": 3}]'
        with pytest.raises(SystemExit, match="bad prior for node 0 .*parameter a must be finite"):
            main(["simulate", "--graph", '{"d": 2, "edges": [[0, 1]]}', "--prior", spec,
                  "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--graph", "fork3", "--envs", "0"], "argument --envs:"),
            (["--config", "bad.cfg", "simulate", "--graph", "fork3"], "bad.cfg: envs=abc"),
            (["--config", "bad.cfg", "discover", "--in", "one.csv"], "bad.cfg: force=ture:"),
            (["discover", "--in", "one.csv"], "one.csv: discovery requires at least 2 samples"),
            (["bivariate", "--in", "one.csv"], "one.csv: discovery requires at least 2 samples"),
            (["sweep-bivariate", "--envs", "3x"], "argument --envs:"),
            (["sweep-multivariate", "--graphs", "fork3", "--samples-per-env", "1"],
             "argument --samples-per-env:"),
            (["sweep-multivariate", "--graphs", "fork3", "--envs", "100,200"],
             "sweep-multivariate: 2 environment counts for 1 graphs"),
            (["oracle-verify", "--d", "7"], "argument --d:"),
            (["identifiability", "--d", "0"], "argument --d:"),
            (["--config", "bad.cfg", "simulate", "--graph", "fork3", "--envs", "5"],
             "bad.cfg: envs=abc"),
            (["simulate", "--graph", "fork3", "--out", "nodir/x.csv"], "nodir/x.csv"),
            (["simulate", "--graph", "fork3", "--out", "outdir"], "outdir"),
            (["discover", "--in", "two.csv", "--force", "--out", "nodir/r.json"], "nodir/r.json"),
            (["sweep-bivariate", "--envs", "100", "--repeats", "1", "--out", "one.csv/sweep"],
             "one.csv/sweep"),
        ],
        ids=["simulate", "config", "config_switch", "discover", "bivariate", "sweep-bivariate",
             "sweep-multivariate", "sweep-multivariate_extra_envs", "oracle-verify",
             "identifiability", "config_under_flag", "simulate_out_dir_missing",
             "simulate_out_is_dir", "discover_out_dir_missing", "sweep_out_under_file"],
    )
    def test_bad_value_exits_naming_its_source(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        g, prior = bivariate_xor_model()
        write_dataset_csv(sample_dataset(g, prior, 20, 1, 0), "one.csv")
        write_dataset_csv(sample_dataset(g, prior, 20, 2, 0), "two.csv")
        (tmp_path / "outdir").mkdir()
        (tmp_path / "bad.cfg").write_text("envs=abc\nforce=ture\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # argparse prints its message and exits 2; the others exit with the message
        code = exc.value.code
        message = capsys.readouterr().err if code == 2 else code
        assert named in message

    @pytest.mark.parametrize(
        "argv, first_work",
        [
            (["sweep-bivariate", "--envs", "100", "--repeats", "1"], "sample_dataset"),
            (["sweep-multivariate", "--graphs", "fork3", "--envs", "100", "--repeats", "1"],
             "sample_dataset"),
            (["oracle-verify", "--d", "2"], "enumerate_dags"),
            (["identifiability", "--d", "2"], "enumerate_dags"),
        ],
        ids=["sweep-bivariate", "sweep-multivariate", "oracle-verify", "identifiability"],
    )
    def test_sweep_out_under_file_fails_before_any_work(self, tmp_path, monkeypatch, argv,
                                                        first_work):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.csv").write_text("")
        calls = []
        monkeypatch.setattr(harness, first_work, lambda *args: calls.append(args))
        with pytest.raises(SystemExit, match="one.csv/sweep"):
            main(argv + ["--out", "one.csv/sweep"])
        assert calls == []

    def test_json_prior_list(self, tmp_path, capsys):
        spec = json.dumps([{"kind": "xor_beta", "a": 1, "b": 3}] * 3)
        assert main(["simulate", "--graph", "fork3", "--prior", spec, "--envs", "20",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert "20 environments" in capsys.readouterr().out

    def test_identifiability_command(self, capsys):
        assert main(["identifiability", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "singletons=True" in out

    @pytest.mark.parametrize(
        "raw, value",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
    )
    def test_config_switch_spellings(self, raw, value):
        assert cli._switch(raw) is value

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph=fork3\nenvs=200\nseed=1\nout=%s\n" % (tmp_path / "a.csv"))
        assert main(["--config", str(cfg), "simulate", "--envs", "150"]) == 0
        out = capsys.readouterr().out
        assert "150 environments" in out

    def test_retired_workers_key_is_ignored(self, tmp_path, monkeypatch, capsys):
        # sweep-multivariate no longer takes --workers; a config file that
        # still names it loads, as any key naming no option does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("workers=2\n")
        argv = ["sweep-multivariate", "--graphs", "fork3", "--envs", "200", "--repeats", "1"]
        assert main(["--config", "run.cfg", *argv]) == 0
        from_config = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == from_config
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    XOR_PRIOR = json.dumps([{"kind": "xor_beta", "a": 1, "b": 3}] * 3)

    @pytest.mark.parametrize(
        "command, options",
        [
            ("simulate", {"graph": "fork3", "prior": XOR_PRIOR, "envs": "40",
                          "samples-per-env": "3", "seed": "4", "out": "sim.csv"}),
            ("discover", {"in": "data.csv", "alpha": "0.01", "force": None, "out": "res.json"}),
            ("bivariate", {"in": "data.csv"}),
            ("sweep-bivariate", {"envs": "100,200", "repeats": "2", "seed": "3",
                                 "samples-per-env": "3", "paper-scale": None, "out": "sweep"}),
            ("sweep-multivariate", {"graphs": "fork3,chain3", "envs": "200,300", "repeats": "1",
                                    "alpha": "0.02", "seed": "3", "samples-per-env": "3",
                                    "paper-scale": None, "out": "sweep"}),
            ("oracle-verify", {"d": "2", "models-per-graph": "2", "seed": "5", "out": "oracle"}),
            ("identifiability", {"d": "2", "out": "ident"}),
        ],
        ids=["simulate", "discover", "bivariate", "sweep-bivariate", "sweep-multivariate",
             "oracle-verify", "identifiability"],
    )
    def test_config_equals_flags(self, tmp_path, monkeypatch, capsys, command, options):
        # every option the subcommand takes, once as flags and once from a
        # config file (a switch as key=true, --in as input=...)
        flags, lines = [], []
        for name, value in options.items():
            flags += [f"--{name}"] + ([] if value is None else [value])
            key = "input" if name == "in" else name.replace("-", "_")
            lines.append(f"{key}={'true' if value is None else value}")
        g, prior = bivariate_xor_model()
        runs = {}
        ways = {"flags": [command, *flags], "config": ["--config", "run.cfg", command]}
        for way, argv in ways.items():
            run_dir = tmp_path / way
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            write_dataset_csv(sample_dataset(g, prior, 300, 2, 0), "data.csv")
            (run_dir / "run.cfg").write_text("\n".join(lines) + "\n")
            assert main(argv) == 0
            files = {
                str(f.relative_to(run_dir)): f.read_bytes()
                for f in sorted(run_dir.rglob("*")) if f.is_file() and f.name != "run.cfg"
            }
            runs[way] = (capsys.readouterr().out, files)
        assert runs["flags"] == runs["config"]
        # all but bivariate write an output beside the input CSV and its sidecar
        assert len(runs["flags"][1]) > 2 or command == "bivariate"

    def test_sweep_bivariate_command(self, capsys):
        assert main([
            "sweep-bivariate", "--envs", "300", "--repeats", "2", "--seed", "0",
        ]) == 0
        assert "envs=" in capsys.readouterr().out
