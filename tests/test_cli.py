"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.codegen import native_source, synthesize
from repro.gallery import (
    figure1b_not_free_choice,
    figure3a_schedulable,
    figure4_weighted,
    figure7_unschedulable,
)
from repro.petrinet import save_net
from repro.qss import analyse
from repro.petrinet.corpus import (
    CORPUS_SCHEMA,
    RECORD_FIELDS,
    corpus_from_json_dict,
    corpus_to_json_dict,
)


@pytest.fixture
def fig3a_file(tmp_path):
    path = tmp_path / "fig3a.json"
    save_net(figure3a_schedulable(), path)
    return str(path)


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.json"
    save_net(figure7_unschedulable(), path)
    return str(path)


class TestInfoAndAnalyse:
    def test_info(self, fig3a_file, capsys):
        assert main(["info", fig3a_file]) == 0
        out = capsys.readouterr().out
        assert "free-choice" in out
        assert "p1" in out

    def test_analyse_schedulable_exit_zero(self, fig3a_file, capsys):
        assert main(["analyse", fig3a_file, "--show-schedule"]) == 0
        out = capsys.readouterr().out
        assert "schedulable" in out
        assert "finite complete cycle" in out
        assert "task_t1" in out

    def test_analyse_unschedulable_exit_one(self, fig7_file, capsys):
        assert main(["analyse", fig7_file]) == 1
        assert "NOT quasi-statically schedulable" in capsys.readouterr().out

    def test_analyse_fail_fast_flag(self, fig7_file, capsys):
        assert main(["analyse", fig7_file, "--fail-fast"]) == 1
        out = capsys.readouterr().out
        assert "fail-fast stop" in out
        assert "NOT quasi-statically schedulable" in out

    def test_missing_file_is_error(self):
        with pytest.raises(SystemExit):
            main(["info", "/nonexistent/net.json"])

    @pytest.mark.parametrize(
        "command",
        [["analyse"], ["synthesize"], ["synthesize", "--driver"]],
        ids=["analyse", "synthesize", "synthesize-driver"],
    )
    def test_not_free_choice_net_is_a_clean_error(self, command, tmp_path, capsys):
        """A net the analysis rejects exits 1 with ``error: …``, as
        ``gallery figure1b --analyse`` does, instead of a traceback."""
        path = tmp_path / "fig1b.json"
        save_net(figure1b_not_free_choice(), path)
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "not a Free-Choice Petri Net" in captured.err
        assert captured.out == ""


class TestSynthesizeAndDot:
    def test_synthesize_to_file(self, fig3a_file, tmp_path, capsys):
        out_file = tmp_path / "out.c"
        assert main(["synthesize", fig3a_file, "-o", str(out_file)]) == 0
        source = out_file.read_text()
        assert "void task_t1(void)" in source
        assert "choice_p1()" in source
        assert "lines of C" in capsys.readouterr().err

    def test_synthesize_unschedulable_fails(self, fig7_file, capsys):
        assert main(["synthesize", fig7_file]) == 1

    def test_synthesize_standalone_loop(self, fig3a_file, capsys):
        assert main(["synthesize", fig3a_file, "--standalone-loop"]) == 0
        assert "while (1) {" in capsys.readouterr().out

    def test_synthesize_driver_writes_the_native_unit(self, tmp_path, capsys):
        path = tmp_path / "fig4.json"
        save_net(figure4_weighted(), path)
        out_file = tmp_path / "unit.c"
        assert main(["synthesize", str(path), "--driver", "-o", str(out_file)]) == 0
        program = synthesize(analyse(figure4_weighted()).schedule)
        assert out_file.read_text(encoding="utf-8") == native_source(program)
        assert "native driver" in capsys.readouterr().err

    def test_synthesize_driver_refuses_standalone_loop(self, fig3a_file, capsys):
        assert main(["synthesize", fig3a_file, "--driver", "--standalone-loop"]) == 2
        captured = capsys.readouterr()
        assert "drop --standalone-loop" in captured.err
        assert captured.out == ""

    def test_dot_output(self, fig3a_file, tmp_path):
        out_file = tmp_path / "net.dot"
        assert main(["dot", fig3a_file, "-o", str(out_file), "--title", "Fig 3a"]) == 0
        text = out_file.read_text()
        assert text.startswith("digraph")
        assert "Fig 3a" in text


class TestGalleryAndTable:
    def test_gallery_list(self, capsys):
        assert main(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out and "figure7" in out

    def test_gallery_unknown_is_usage_error(self, capsys):
        assert main(["gallery", "figure99"]) == 2

    def test_gallery_dump_to_stdout_is_json(self, capsys):
        assert main(["gallery", "figure4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "figure4"

    def test_gallery_dump_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "fig4.json"
        assert main(["gallery", "figure4", "-o", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["name"] == "figure4"

    def test_atm_table1_small(self, capsys):
        assert main(["atm-table1", "--cells", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Number of tasks" in out
        assert "clock-cycle ratio" in out


class TestServe:
    def test_serve_small_fleet(self, capsys):
        assert main(["serve", "--instances", "6", "--events", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet of 6 instance(s) (compiled engine)" in out
        assert "per-instance cycles" in out
        assert "modules partition" in out

    def test_serve_engines_agree_on_cycles(self, capsys):
        args = ["serve", "--instances", "4", "--events", "2", "--seed", "9"]
        assert main(args + ["--engine", "compiled"]) == 0
        compiled_out = capsys.readouterr().out
        assert main(args + ["--engine", "legacy"]) == 0
        legacy_out = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("total cycles", "events processed", "per-instance"))
        ]
        assert pick(compiled_out) == pick(legacy_out)

    def test_serve_single_partition(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "4",
                    "--events",
                    "2",
                    "--partition",
                    "single",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "single partition" in out
        assert "queue traffic  : 0" in out


class TestServeService:
    """The always-on service modes of `repro-qss serve`."""

    def test_service_mode_matches_batch_mode(self, capsys, tmp_path):
        args = ["serve", "--instances", "6", "--events", "3", "--seed", "4"]
        assert main(args) == 0
        batch_out = capsys.readouterr().out
        telemetry = str(tmp_path / "t.jsonl")
        assert main(args + ["--telemetry", telemetry]) == 0
        service_out = capsys.readouterr().out
        pick = lambda text: [
            line
            for line in text.splitlines()
            if line.startswith(
                ("total cycles", "events processed", "per-instance")
            )
        ]
        assert pick(batch_out) == pick(service_out)
        assert "(service, modules partition)" in service_out

    def test_failed_shard_exits_1_instead_of_hanging(self, tmp_path):
        """A bad event over the socket fails its shard; the run still ends."""
        import asyncio
        import os
        import subprocess
        import sys

        from repro.service import ServiceClient

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--instances", "0",
            "--listen", "127.0.0.1:0", "--duration", "30",
            "--telemetry", str(tmp_path / "t.jsonl"),
            "--telemetry-interval", "0.05",
        ]
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            host, port = re.search(
                r"listening on ([0-9.]+):([0-9]+)", banner
            ).groups()

            async def drive():
                client = await ServiceClient.connect(host, int(port))
                # a known transition that is not a source: the shard fails
                await client.inject(0, "t_parse_header")
                ack = await client.reload()
                await client.shutdown()
                await client.close()
                return ack

            ack = asyncio.run(asyncio.wait_for(drive(), timeout=30))
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert not ack.ok and "shard failed" in ack.error
        assert proc.returncode == 1
        assert "error: shard failed: NotEnabledError" in err

    @pytest.mark.parametrize(
        "how, drain",
        [("client_without_drain", False), ("client", True), ("duration", True)],
    )
    def test_listen_stops_the_supervisor_as_the_client_asked(
        self, monkeypatch, capsys, how, drain
    ):
        """A client's ``shutdown(drain=False)`` reaches
        ``FleetSupervisor.stop``; the ``--duration`` expiry drains."""
        import asyncio

        from repro.service import FleetSupervisor, IngestServer, ServiceClient

        stops, clients = [], []
        stop, start = FleetSupervisor.stop, IngestServer.start

        async def recording_stop(self, drain=True):
            stops.append(drain)
            return await stop(self, drain=drain)

        async def start_with_a_client(self):
            host, port = await start(self)

            async def client():
                client = await ServiceClient.connect(host, port)
                await client.inject(0, "t_tick")
                await client.snapshot()
                if how != "duration":
                    await client.shutdown(drain=how == "client")
                await client.close()

            clients.append(asyncio.ensure_future(client()))
            return host, port

        monkeypatch.setattr(FleetSupervisor, "stop", recording_stop)
        monkeypatch.setattr(IngestServer, "start", start_with_a_client)
        duration = "0.5" if how == "duration" else "30"
        args = ["serve", "--instances", "0", "--listen", "127.0.0.1:0"]
        assert main(args + ["--duration", duration]) == 0
        assert stops == [drain]
        assert clients[0].result() is None  # the client ran to its end
        assert "served 1 events" in capsys.readouterr().out

    def test_service_telemetry_file(self, tmp_path, capsys):
        from repro.service import validate_telemetry_record

        telemetry = tmp_path / "telemetry.jsonl"
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "4",
                    "--events",
                    "2",
                    "--telemetry",
                    str(telemetry),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        served = int(re.search(r"served ([0-9]+) events", out).group(1))
        records = [json.loads(line) for line in telemetry.read_text().splitlines()]
        assert records  # at least the final sample
        for record in records:
            validate_telemetry_record(record)
            assert "kind" not in record and "shard" not in record
        # one record per tick; the last one, taken after the final
        # inject, sees every event, and the deltas add up to it
        assert records[-1]["events"] == served > 0
        assert sum(record["events_delta"] for record in records) == served

    def test_corpus_family_workload(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "5",
                    "--events",
                    "4",
                    "--family",
                    "pipeline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet of 5 instance(s)" in out
        assert "single partition" in out

    def test_corpus_family_with_parameter_override(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "3",
                    "--events",
                    "2",
                    "--family",
                    "choice_fan:branches=4",
                ]
            )
            == 0
        )
        assert "fleet of 3 instance(s)" in capsys.readouterr().out


#: A fleet small enough that a run the validation wrongly lets through
#: ends at once.
SMALL_FLEET = ["--instances", "2", "--events", "2"]


class TestServeValidation:
    """Up-front argparse validation of serve flag combinations (exit 2)."""

    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["--instances", "0"], "--instances: must be positive"),
            (["--instances", "-3"], "--instances: must be positive"),
            (["--events", "0"], "--events: must be positive"),
            (["--shards", "2"], "unrecognized arguments: --shards 2"),
            (["--duration", "5"], "only meaningful with --listen"),
            (
                ["--listen", "127.0.0.1:0", "--duration", "0"],
                "--duration: must be positive",
            ),
            (["--listen", "localhost"], "expected HOST:PORT"),
            (["--listen", "localhost:notaport"], "bad port"),
            (["--telemetry", "t.jsonl", "--engine", "legacy"], "compiled kernel"),
            (["--family", "warp_drive"], "unknown family"),
            (
                ["--family", "pipeline", "--partition", "modules"],
                "needs an application family",
            ),
            (["--family", "atm:cells=3"], "takes no"),
            (
                ["--family", "choice_fan:bogus=1"],
                "unknown parameter",
            ),
            (["--family", "choice_fan:branches"], "expected key=value"),
            (
                ["--listen", "127.0.0.1:0", "--duration", "nan"],
                "--duration: must be positive and finite",
            ),
            (["--duration", "inf"], "--duration: must be positive and finite"),
            (
                SMALL_FLEET + ["--telemetry", "t.jsonl", "--telemetry-interval", "0"],
                "--telemetry-interval: must be positive and finite",
            ),
            (
                SMALL_FLEET + ["--telemetry", "t.jsonl", "--telemetry-interval", "-1"],
                "--telemetry-interval: must be positive and finite",
            ),
            (
                SMALL_FLEET
                + ["--telemetry", "t.jsonl", "--telemetry-interval", "nan"],
                "--telemetry-interval: must be positive and finite",
            ),
            (
                SMALL_FLEET + ["--telemetry-interval", "1"],
                "--telemetry-interval: only meaningful with --telemetry",
            ),
        ],
    )
    def test_bad_combinations_exit_2(
        self, args, fragment, capsys, monkeypatch, tmp_path
    ):
        # a run the validation lets through writes its files here
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"] + args)
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err


class TestCorpus:
    def test_small_parallel_corpus_writes_valid_json(self, tmp_path, capsys):
        json_path = tmp_path / "corpus.json"
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "8",
                    "--workers",
                    "2",
                    "--seed",
                    "3",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "corpus: 8 nets" in out
        assert "2 worker(s)" in out

        data = json.loads(json_path.read_text())
        assert data["schema"] == CORPUS_SCHEMA
        assert data["n"] == 8
        assert data["workers"] == 2
        assert len(data["records"]) == 8
        for record in data["records"]:
            assert set(record) == set(RECORD_FIELDS)
            assert record["places"] > 0 and record["transitions"] > 0
            assert record["error"] is None
        assert data["summary"]["total"] == 8
        assert data["summary"]["errors"] == 0

    def test_json_summary_round_trips(self, tmp_path):
        json_path = tmp_path / "corpus.json"
        assert main(["corpus", "--n", "8", "--workers", "2", "--seed", "3",
                     "--json", str(json_path)]) == 0
        data = json.loads(json_path.read_text())
        rebuilt = corpus_to_json_dict(corpus_from_json_dict(data))
        # elapsed_seconds is a stored field, not recomputed, so the whole
        # document must survive the dict -> CorpusResult -> dict cycle
        assert rebuilt == data

    def test_corpus_csv_row_per_net(self, tmp_path, capsys):
        csv_path = tmp_path / "corpus.csv"
        assert main(["corpus", "--n", "5", "--seed", "1", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["family", "seed", "params"]
        assert len(lines) == 6  # header + one row per net

    def test_corpus_qss_sweep_mode(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "8",
                    "--workers",
                    "2",
                    "--seed",
                    "3",
                    "--analyse",
                    "qss",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "qss mode" in out
        assert "qss sweep:" in out
        data = json.loads(json_path.read_text())
        assert data["schema"] == CORPUS_SCHEMA
        assert data["analyse"] == "qss"
        for record in data["records"]:
            assert set(record) == set(RECORD_FIELDS)
            assert record["error"] is None
            # property passes are skipped in sweep mode
            assert record["bounded"] is None
            if record["free_choice"]:
                assert record["schedulable"] is not None
                assert record["allocations"] >= 1
                assert record["cycle_lengths"] is not None
        assert data["summary"]["qss"]["swept"] >= 1
        rebuilt = corpus_to_json_dict(corpus_from_json_dict(data))
        assert rebuilt == data

    def test_corpus_runtime_sweep_mode(self, tmp_path, capsys):
        json_path = tmp_path / "runtime.json"
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "8",
                    "--workers",
                    "2",
                    "--seed",
                    "3",
                    "--analyse",
                    "runtime",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "runtime mode" in out
        assert "runtime sweep:" in out
        data = json.loads(json_path.read_text())
        assert data["schema"] == CORPUS_SCHEMA
        assert data["analyse"] == "runtime"
        swept = 0
        for record in data["records"]:
            assert set(record) == set(RECORD_FIELDS)
            assert record["error"] is None
            # property and qss passes are skipped in runtime mode
            assert record["bounded"] is None
            assert record["schedulable"] is None
            if record["fleet_instances"] is not None:
                swept += 1
                assert record["fleet_events"] > 0
                assert record["fleet_cycles_total"] > 0
                assert record["fleet_cycles_p50"] <= record["fleet_cycles_p95"]
        assert swept >= 1
        assert data["summary"]["runtime"]["swept"] == swept
        rebuilt = corpus_to_json_dict(corpus_from_json_dict(data))
        assert rebuilt == data

    def test_corpus_list_families(self, capsys):
        assert main(["corpus", "--list-families"]) == 0
        out = capsys.readouterr().out
        assert "producer_consumer_ring" in out
        assert "gallery" in out

    def test_corpus_unknown_family_is_usage_error(self, capsys):
        assert main(["corpus", "--n", "4", "--families", "nope"]) == 2
        assert "unknown corpus families" in capsys.readouterr().err

    def test_corpus_malformed_memory_budget_fails_once(self, capsys):
        assert main(["corpus", "--n", "3", "--memory-budget", "bogus"]) == 2
        captured = capsys.readouterr()
        errors = [
            line for line in captured.err.splitlines() if line.startswith("error:")
        ]
        assert len(errors) == 1
        assert "'bogus'" in errors[0]
        assert captured.out == ""

    def test_corpus_legacy_refuses_out_of_core_flags(self, capsys):
        argv = ["corpus", "--n", "2", "--engine", "legacy", "--memory-budget", "64MB"]
        assert main(argv) == 2
        assert "engine='legacy'" in capsys.readouterr().err

    def test_corpus_family_subset_and_engine(self, capsys):
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "4",
                    "--families",
                    "producer_consumer_ring,random_marked_graph",
                    "--engine",
                    "legacy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "legacy engine" in out
