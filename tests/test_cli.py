"""End-to-end tests for the ``python -m repro`` CLI."""

import csv
import json

import pytest

from repro import __version__
from repro.cli import build_parser, config_from_args, main
from repro.relational import DataType, load_database


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "retail", "/tmp/x"])
        assert args.gamma == 4 and args.target == "ryan"

    def test_match_flags(self):
        args = build_parser().parse_args(
            ["match", "a", "b", "--inference", "src", "--late-disjuncts",
             "--tau", "0.4"])
        assert args.inference == "src"
        assert args.late_disjuncts
        assert args.tau == 0.4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_match_many_parses(self):
        args = build_parser().parse_args(
            ["match-many", "tgt", "s1", "s2", "--json"])
        assert args.target == "tgt"
        assert args.sources == ["s1", "s2"]
        assert args.json

    def test_jobs_flag_rejects_non_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match-many", "tgt", "s1",
                                       "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestConfigResolution:
    def test_defaults_without_flags_or_file(self):
        args = build_parser().parse_args(["match", "a", "b"])
        config = config_from_args(args)
        assert config.tau == 0.5
        assert config.inference == "tgt"
        assert config.early_disjuncts

    def test_config_file_is_loaded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau": 0.7, "inference": "src",
                                    "early_disjuncts": False}))
        args = build_parser().parse_args(["match", "a", "b",
                                          "--config", str(path)])
        config = config_from_args(args)
        assert config.tau == 0.7
        assert config.inference == "src"
        assert not config.early_disjuncts

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau": 0.7, "omega": 12.0}))
        args = build_parser().parse_args(
            ["match", "a", "b", "--config", str(path), "--tau", "0.3"])
        config = config_from_args(args)
        assert config.tau == 0.3     # explicit flag wins
        assert config.omega == 12.0  # untouched file value survives

    def test_bad_config_file_exits_cleanly(self, tmp_path):
        args = build_parser().parse_args(
            ["match", "a", "b", "--config", str(tmp_path / "missing.json")])
        with pytest.raises(SystemExit) as excinfo:
            config_from_args(args)
        assert "cannot load --config" in str(excinfo.value)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        args = build_parser().parse_args(["match", "a", "b",
                                          "--config", str(bad)])
        with pytest.raises(SystemExit):
            config_from_args(args)

    def test_nested_standard_config_round_trips(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"standard": {"sample_limit": 123}}))
        args = build_parser().parse_args(["match", "a", "b",
                                          "--config", str(path)])
        assert config_from_args(args).standard.sample_limit == 123


class TestEndToEnd:
    def test_generate_then_match(self, tmp_path, capsys):
        out = tmp_path / "wl"
        assert main(["generate", "retail", str(out), "--rows", "300",
                     "--gamma", "2", "--seed", "7"]) == 0
        assert (out / "src" / "items.csv").exists()
        assert (out / "tgt" / "books.csv").exists()

        rc = main(["match", str(out / "src"), str(out / "tgt"),
                   "--inference", "src", "--seed", "3"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "contextual" in output
        assert "WHERE" in output  # at least one contextual match printed

    def test_generate_then_map(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", "grades", str(out), "--sigma", "8", "--seed", "5"])
        migrated = tmp_path / "migrated"
        rc = main(["map", str(out / "src"), str(out / "tgt"),
                   "--inference", "src", "--late-disjuncts", "--seed", "3",
                   "--out", str(migrated)])
        assert rc == 0
        assert (migrated / "grades_wide.csv").exists()
        output = capsys.readouterr().out
        assert "map -> grades_wide" in output

    def test_match_json_includes_run_report(self, tmp_path, capsys):
        """Acceptance: RunReport with all five stage timings in --json."""
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        rc = main(["match", str(out / "src"), str(out / "tgt"),
                   "--inference", "src", "--seed", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["report"]
        assert [s["name"] for s in report["stages"]] == [
            "standard-match", "infer-views", "score-candidates", "select",
            "conjunctive-refine"]
        assert all(s["elapsed_seconds"] >= 0.0 for s in report["stages"])
        assert payload["standard_matches"]

    @pytest.mark.parametrize("inference", ["src", "tgt"])
    def test_match_over_non_finite_and_huge_floats(self, tmp_path, capsys,
                                                   inference):
        """A CSV FLOAT column holding ``inf``, ``-inf`` and ``1e200``
        loads as FLOAT, and matching over it completes."""
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        path = out / "src" / "items.csv"
        with path.open(newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        price = header.index("ListPrice")
        for i, row in enumerate(rows):
            row[price] = {0: "1e200", 1: "inf", 2: "-inf"}.get(
                i % 5, row[price])
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header] + rows)
        items = load_database(out / "src").relation("items")
        assert items.schema.dtype("ListPrice") is DataType.FLOAT
        assert items.column("ListPrice")[:3] == [1e200, float("inf"),
                                                 float("-inf")]
        rc = main(["match", str(out / "src"), str(out / "tgt"),
                   "--inference", inference, "--seed", "2", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["matches"]

    @pytest.mark.parametrize("inference", ["src", "tgt"])
    def test_match_over_integers_no_float_holds(self, tmp_path, capsys,
                                                inference):
        """INTEGER columns holding 400-digit integers, on both sides,
        load exactly, and matching over them completes."""
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        big = "9" * 400
        for path, column in ((out / "src" / "items.csv", "Qty"),
                             (out / "tgt" / "books.csv", "book_id")):
            with path.open(newline="", encoding="utf-8") as handle:
                header, *rows = list(csv.reader(handle))
            at = header.index(column)
            for i, row in enumerate(rows[::3]):
                row[at] = big if i % 2 else str(2 ** 64 + i)
            with path.open("w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows([header] + rows)
        items = load_database(out / "src").relation("items")
        assert items.schema.dtype("Qty") is DataType.INTEGER
        assert items.column("Qty")[3] == int(big)
        rc = main(["match", str(out / "src"), str(out / "tgt"),
                   "--inference", inference, "--seed", "2", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["matches"]

    def test_match_many(self, tmp_path, capsys):
        out1 = tmp_path / "wl1"
        out2 = tmp_path / "wl2"
        main(["generate", "retail", str(out1), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        main(["generate", "retail", str(out2), "--rows", "200",
              "--gamma", "2", "--seed", "8"])
        capsys.readouterr()
        rc = main(["match-many", str(out1 / "tgt"), str(out1 / "src"),
                   str(out2 / "src"), "--inference", "src", "--seed", "2",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == str(out1 / "tgt")
        assert len(payload["results"]) == 2
        for entry in payload["results"]:
            assert entry["matches"]
            # Batch runs reuse the shared prepared target.
            assert entry["report"]["target_prepared"]
        assert payload["results"][0]["source"] == str(out1 / "src")

    def test_match_many_jobs_json(self, tmp_path, capsys):
        """Tier-1 smoke of the 2-worker process fan-out: same result shape
        as the serial path plus the executor throughput section."""
        out1 = tmp_path / "wl1"
        out2 = tmp_path / "wl2"
        main(["generate", "retail", str(out1), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        main(["generate", "retail", str(out2), "--rows", "200",
              "--gamma", "2", "--seed", "8"])
        capsys.readouterr()
        args = ["match-many", str(out1 / "tgt"), str(out1 / "src"),
                str(out2 / "src"), "--inference", "src", "--seed", "2",
                "--json"]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        executor = parallel.pop("executor")
        assert executor["backend"] == "process"
        assert executor["workers"] == 2
        assert executor["tasks"] == 2
        assert len(executor["task_seconds"]) == 2
        assert executor["prepare_transfer_bytes"] > 0
        # Identical matches in identical order, serial vs process.
        assert [r["matches"] for r in parallel["results"]] \
            == [r["matches"] for r in serial["results"]]
        assert all(r["report"]["target_prepared"]
                   for r in parallel["results"])

    def test_match_many_jobs_one_is_serial(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        rc = main(["match-many", str(out / "tgt"), str(out / "src"),
                   "--inference", "src", "--seed", "2", "--jobs", "1",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"]["backend"] == "serial"
        assert payload["executor"]["prepare_transfer_bytes"] == 0

    def test_match_many_text_output(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        rc = main(["match-many", str(out / "tgt"), str(out / "src"),
                   "--inference", "src", "--seed", "2"])
        assert rc == 0
        output = capsys.readouterr().out
        assert f"== {out / 'src'}" in output
        assert "contextual" in output

    def test_scenarios_list(self, capsys):
        from repro.datagen import scenario_names

        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names():
            assert name in output

    def test_scenarios_list_json(self, capsys):
        from repro.datagen import ScenarioSpec, scenario_names

        assert main(["scenarios", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload] == scenario_names()
        # Every listed spec round-trips to a buildable ScenarioSpec.
        assert all(isinstance(ScenarioSpec.from_dict(s), ScenarioSpec)
                   for s in payload)

    def test_scenarios_run_text(self, capsys):
        assert main(["scenarios", "run", "events", "--size", "80"]) == 0
        output = capsys.readouterr().out
        assert "events" in output
        assert "acc=" in output and "prec=" in output

    def test_scenarios_run_json_schema(self, capsys):
        """Acceptance: `repro scenarios run <name> --json` emits a
        schema-valid ScenarioResult report."""
        from repro.evaluation import scenario_result_from_dict

        rc = main(["scenarios", "run", "retail-nulls", "--size", "120",
                   "--seed", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "retail-nulls"
        assert payload["spec"]["size"] == 120
        assert payload["spec"]["seed"] == 4
        for key in ("accuracy", "precision", "fmeasure", "n_found",
                    "n_correct_found", "n_truth"):
            assert key in payload["metrics"]
        assert set(payload["counters"]) == {
            "profile_hits", "profile_misses", "partitions_built",
            "partition_hits", "profiles_merged"}
        assert [s["name"] for s in payload["report"]["stages"]] == [
            "standard-match", "infer-views", "score-candidates", "select",
            "conjunctive-refine"]
        restored = scenario_result_from_dict(payload)
        assert restored.scenario == "retail-nulls"

    def test_match_json_retrieval_section(self, tmp_path, capsys):
        """Satellite: matching --json output carries a `retrieval`
        section plus the library version."""
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        rc = main(["match", str(out / "src"), str(out / "tgt"),
                   "--inference", "src", "--seed", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["__version__"] == __version__
        retrieval = payload["retrieval"]
        assert retrieval["enabled"] is True
        assert retrieval["top_k"] == 16
        assert retrieval["queries"] > 0
        assert retrieval["pairs_considered"] > 0
        assert retrieval["pairs_pruned"] == 0
        assert retrieval["recall"] == 1.0

    def test_match_no_retrieval_flag(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        base = ["match", str(out / "src"), str(out / "tgt"),
                "--inference", "src", "--seed", "2", "--json"]
        assert main(base) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert main(base + ["--no-retrieval"]) == 0
        exhaustive = json.loads(capsys.readouterr().out)
        assert exhaustive["retrieval"]["enabled"] is False
        assert exhaustive["retrieval"]["queries"] == 0
        # The exhaustive reference is bit-identical to the default run.
        assert exhaustive["matches"] == pruned["matches"]

    def test_match_retrieval_top_k_flag(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        rc = main(["match", str(out / "src"), str(out / "tgt"),
                   "--inference", "src", "--seed", "2",
                   "--retrieval-top-k", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["retrieval"]["top_k"] == 2
        assert payload["retrieval"]["pairs_pruned"] > 0

    def test_retrieval_top_k_must_be_positive(self, tmp_path, capsys):
        out = tmp_path / "wl"
        with pytest.raises(SystemExit):
            main(["match", str(out / "src"), str(out / "tgt"),
                  "--retrieval-top-k", "0"])

    def test_match_many_json_retrieval_section(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", "retail", str(out), "--rows", "200",
              "--gamma", "2", "--seed", "3"])
        capsys.readouterr()
        rc = main(["match-many", str(out / "tgt"), str(out / "src"),
                   str(out / "src"), "--inference", "src", "--seed", "2",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["__version__"] == __version__
        # Two identical sources: counters are summed across the batch.
        assert payload["retrieval"]["queries"] > 0
        assert payload["retrieval"]["queries"] % 2 == 0
        assert payload["retrieval"]["recall"] == 1.0

    def test_scenarios_run_retrieval_flags(self, capsys):
        rc = main(["scenarios", "run", "events", "--size", "80", "--json"])
        assert rc == 0
        default = json.loads(capsys.readouterr().out)
        assert default["__version__"] == __version__
        assert default["retrieval"]["enabled"] is True
        assert default["retrieval"]["recall"] == 1.0

        rc = main(["scenarios", "run", "events", "--size", "80",
                   "--retrieval-top-k", "3", "--json"])
        assert rc == 0
        pruned = json.loads(capsys.readouterr().out)
        # The flag reaches the run through the spec's own config tuple.
        assert pruned["spec"]["config"]["retrieval_top_k"] == 3
        assert pruned["retrieval"]["top_k"] == 3
        assert pruned["retrieval"]["pairs_pruned"] > 0

        rc = main(["scenarios", "run", "events", "--size", "80",
                   "--no-retrieval", "--json"])
        assert rc == 0
        off = json.loads(capsys.readouterr().out)
        assert off["spec"]["config"]["use_retrieval"] is False
        assert off["retrieval"]["enabled"] is False
        assert off["retrieval"]["queries"] == 0
        # Same metrics either way — retrieval is invisible at default k.
        assert off["metrics"] == default["metrics"]

    def test_scenarios_run_unknown_name_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "run", "no-such-scenario"])
        assert "unknown scenario" in str(excinfo.value)

    def test_scenarios_run_batch_json_surfaces_executor(self, capsys):
        """Several names (or --jobs) switch to the batch document: results
        in input order plus the serialized ThroughputReport."""
        rc = main(["scenarios", "run", "events", "retail", "--size", "80",
                   "--jobs", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["scenario"] for r in payload["results"]] \
            == ["events", "retail"]
        executor = payload["executor"]
        assert executor["backend"] == "process"
        assert executor["workers"] == 2
        assert executor["tasks"] == 2
        assert len(executor["task_seconds"]) == 2
        from repro.context.serialize import throughput_from_dict
        assert throughput_from_dict(executor).tasks == 2

    def test_scenarios_run_multiple_names_text(self, capsys):
        rc = main(["scenarios", "run", "events", "events", "--size", "60"])
        assert rc == 0
        output = capsys.readouterr().out
        assert output.count("events:") == 2
        assert "# executor:" in output

    def test_map_with_no_matches_fails_cleanly(self, tmp_path, capsys):
        import csv
        src = tmp_path / "src"
        tgt = tmp_path / "tgt"
        src.mkdir(), tgt.mkdir()
        with (src / "a.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x"])
            for i in range(10):
                writer.writerow([f"zzz{i}"])
        with (tgt / "b.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["y"])
            for i in range(10):
                writer.writerow([i * 1.5])
        rc = main(["map", str(src), str(tgt), "--inference", "src",
                   "--tau", "0.99"])
        assert rc == 1


class TestStoreAndServeCLI:
    """Satellite: the new subcommands, including the --json surfaces that
    must carry ``__version__`` and the store path."""

    @pytest.fixture(scope="class")
    def workload_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("wl")
        assert main(["generate", "retail", str(out), "--rows", "80",
                     "--seed", "7"]) == 0
        return out

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory, workload_dir):
        return tmp_path_factory.mktemp("store")

    def test_store_and_serve_parse(self):
        args = build_parser().parse_args(
            ["store", "save", "tgt", "--store", "s", "--json"])
        assert args.store_command == "save" and args.json
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--port", "0", "--jobs", "2",
             "--startup-only"])
        assert args.jobs == 2 and args.startup_only

    def test_save_json_carries_version_and_store(self, workload_dir,
                                                 store_dir, capsys):
        rc = main(["store", "save", str(workload_dir / "tgt"),
                   "--store", str(store_dir), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["__version__"] == __version__
        assert doc["store"] == str(store_dir)
        assert len(doc["entry"]["token"]) == 64
        assert doc["entry"]["database"] == "target"
        assert len(doc["entry"]["lookup_key"]) == 64

    def test_save_again_dedups(self, workload_dir, store_dir, capsys):
        rc = main(["store", "save", str(workload_dir / "tgt"),
                   "--store", str(store_dir)])
        assert rc == 0
        assert "already stored" in capsys.readouterr().out

    def test_list_json(self, store_dir, capsys):
        rc = main(["store", "list", "--store", str(store_dir), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["__version__"] == __version__
        assert len(doc["entries"]) == 1
        assert doc["total_bytes"] > 0

    def test_load_verifies(self, store_dir, capsys):
        main(["store", "list", "--store", str(store_dir), "--json"])
        token = json.loads(capsys.readouterr().out)["entries"][0]["token"]
        rc = main(["store", "load", token, "--store", str(store_dir),
                   "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True
        assert doc["entry"]["token"] == token

    def test_load_missing_exits_cleanly(self, store_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "load", "0" * 64, "--store", str(store_dir)])
        assert "no artifact" in str(excinfo.value)

    def test_gc_json(self, store_dir, capsys):
        rc = main(["store", "gc", "--store", str(store_dir), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == {}
        assert doc["remaining"] == 1
        assert doc["store"] == str(store_dir)

    def test_serve_startup_only_json(self, store_dir, capsys):
        rc = main(["serve", "--store", str(store_dir), "--port", "0",
                   "--startup-only", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["__version__"] == __version__
        assert doc["store"] == str(store_dir)
        assert doc["targets_warmed"] == 1
        assert doc["serving"].startswith("http://127.0.0.1:")

    def test_serve_startup_only_text(self, store_dir, capsys):
        rc = main(["serve", "--store", str(store_dir), "--port", "0",
                   "--startup-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert __version__ in out
        assert "1 targets warm" in out


class TestMatchRepoCLI:
    """``repro match-repo``: route sources across a store of hubs."""

    @pytest.fixture(scope="class")
    def fleet_dirs(self, tmp_path_factory):
        from repro.datagen import make_routing_fleet
        from repro.relational import dump_database

        root = tmp_path_factory.mktemp("fleet")
        fleet = make_routing_fleet(hub_families=("events", "retail"),
                                   sources_per_hub=1, size=140)
        for family, hub in fleet.hubs.items():
            dump_database(hub, root / f"hub-{family}")
        for case in fleet.sources:
            dump_database(case.source, root / f"src-{case.hub_family}")
        return root

    @pytest.fixture(scope="class")
    def hub_store(self, tmp_path_factory, fleet_dirs):
        store = tmp_path_factory.mktemp("hub-store")
        for family in ("events", "retail"):
            assert main(["store", "save",
                         str(fleet_dirs / f"hub-{family}"),
                         "--store", str(store)]) == 0
        return store

    def test_parses(self):
        args = build_parser().parse_args(
            ["match-repo", "s1", "s2", "--store", "dir",
             "--targets", "t1", "t2", "--jobs", "2", "--json"])
        assert args.sources == ["s1", "s2"]
        assert args.targets == ["t1", "t2"]
        assert args.jobs == 2 and args.json

    def test_text_output_ranks_hubs(self, fleet_dirs, hub_store, capsys):
        rc = main(["match-repo", str(fleet_dirs / "src-events"),
                   "--store", str(hub_store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== " in out
        assert "[2 hubs]" in out
        assert out.count("score=") == 2

    def test_json_routes_both_sources(self, fleet_dirs, hub_store, capsys):
        rc = main(["match-repo", str(fleet_dirs / "src-events"),
                   str(fleet_dirs / "src-retail"),
                   "--store", str(hub_store), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["__version__"] == __version__
        assert len(doc["targets"]) == 2
        assert doc["repository"] == {"routes": 2, "pairs": 4,
                                     "appends": 0}
        # Each source routes to a different hub, and the winner carries
        # its full drill-down result.
        bests = [result["best"] for result in doc["results"]]
        assert len(set(bests)) == 2
        for result in doc["results"]:
            winner = [entry for entry in result["ranking"]
                      if entry["token"] == result["best"]]
            assert "result" in winner[0]

    def test_targets_subset_and_jobs(self, fleet_dirs, hub_store, capsys):
        list_rc = main(["store", "list", "--store", str(hub_store),
                        "--json"])
        assert list_rc == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        token = entries[-1]["token"]  # oldest entry: the events hub
        rc = main(["match-repo", str(fleet_dirs / "src-events"),
                   "--store", str(hub_store), "--targets", token,
                   "--jobs", "1", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["targets"] == [token]
        assert doc["results"][0]["best"] == token

    def test_empty_store_exits_cleanly(self, fleet_dirs, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["match-repo", str(fleet_dirs / "src-events"),
                  "--store", str(tmp_path / "empty")])
        assert "repro: error" in str(excinfo.value)
