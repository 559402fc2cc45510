"""End-to-end command-line runs against files on disk."""

import json

import pytest

from conftest import VERBATIM_AUTONOMOUS_CONFIG
from wfdsim import Simulation, parse_config
from wfdsim import cli
from wfdsim.cli import main
from wfdsim.engine import SimulationError
from wfdsim.peer import Peer
from wfdsim.trace import parse_trace_text

LOSSY_CONFIG = "numHosts = 10\n**.medium.lossProbability = 0.2\n"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(VERBATIM_AUTONOMOUS_CONFIG, encoding="utf-8")
    return path


def test_run_writes_trace_and_metrics(tmp_path, config_file, capsys):
    trace = tmp_path / "run.trace"
    metrics = tmp_path / "run.metrics"
    status = main(["run", "--config", str(config_file), "--seed", "15",
                   "--until", "8s", "--trace", str(trace),
                   "--metrics", str(metrics)])
    assert status == 0
    assert trace.exists() and metrics.exists()
    assert (tmp_path / "run.metrics.json").exists()
    assert trace.read_text().splitlines()[0].startswith("#")
    payload = json.loads((tmp_path / "run.metrics.json").read_text())
    assert payload["schema_version"] == 1
    flat = metrics.read_text()
    assert "formation_time = " in flat
    out = capsys.readouterr()
    assert "seed 15" in out.out
    assert "numPingApps" in out.err  # parser warning surfaces on stderr


def test_run_summary_counts_trace_rows(tmp_path, config_file, capsys):
    trace = tmp_path / "run.trace"
    assert main(["run", "--config", str(config_file), "--seed", "15",
                 "--until", "8s", "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    transmissions = {line.split("\t")[0] for line in lines}
    assert len(lines) > len(transmissions)  # rows, not transmissions, count
    assert f", {len(lines)} trace rows, " in capsys.readouterr().out


@pytest.fixture
def lossy_config_file(tmp_path):
    path = tmp_path / "lossy.ini"
    path.write_text(LOSSY_CONFIG, encoding="utf-8")
    return path


def test_trace_file_is_the_run_result_text(tmp_path, lossy_config_file):
    trace = tmp_path / "run.trace"
    assert main(["run", "--config", str(lossy_config_file), "--seed", "7",
                 "--trace", str(trace)]) == 0
    result = Simulation(parse_config(LOSSY_CONFIG), seed=7).run()
    assert trace.read_bytes() == result.trace_text().encode("utf-8")
    # the file reads back as the stored transmissions, and a transmission
    # that no receiver heard is neither stored nor written
    assert parse_trace_text(trace.read_text()) == result.collector.entries
    assert all(tx.receivers for tx in result.trace)


def test_run_that_raises_still_writes_its_rows(tmp_path, lossy_config_file,
                                               monkeypatch, capsys):
    sims = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    def crash(peer, *args, **kwargs):
        raise SimulationError("stopped when a group forms")

    monkeypatch.setattr(cli, "Simulation", Recorded)
    monkeypatch.setattr(Peer, "_become_go", crash)
    trace = tmp_path / "run.trace"
    assert main(["run", "--config", str(lossy_config_file), "--seed", "7",
                 "--trace", str(trace)]) == 2
    assert "error: stopped when a group forms" in capsys.readouterr().err
    [sim] = sims
    assert sim.trace.transmissions
    assert trace.read_text() == sim.trace.text()


def test_run_is_reproducible_on_disk(tmp_path, config_file):
    paths = []
    for name in ("a", "b"):
        trace = tmp_path / f"{name}.trace"
        metrics = tmp_path / f"{name}.metrics"
        assert main(["run", "--config", str(config_file), "--seed", "15",
                     "--until", "8s", "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        paths.append((trace, metrics))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_validate_accepts_own_trace(tmp_path, config_file, capsys):
    trace = tmp_path / "run.trace"
    main(["run", "--config", str(config_file), "--seed", "15",
          "--until", "8s", "--trace", str(trace)])
    assert main(["validate", "--trace", str(trace)]) == 0
    assert "trace ok" in capsys.readouterr().out


def test_validate_flags_corrupted_trace(tmp_path, config_file, capsys):
    trace = tmp_path / "run.trace"
    main(["run", "--config", str(config_file), "--seed", "15",
          "--until", "8s", "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    ack_id = next(l.split("\t")[0] for l in lines if l.endswith("\tACK"))
    mutated = [l for l in lines if not l.startswith(ack_id + "\t")]
    trace.write_text("\n".join(mutated) + "\n", encoding="utf-8")
    assert main(["validate", "--trace", str(trace)]) == 1
    assert "ack-pairing" in capsys.readouterr().out


def test_validate_reads_the_medium_of_the_scenario(tmp_path, capsys):
    # the trace does not carry the ACK delay, so a run with a slower ACK
    # turnaround validates clean only with its scenario
    config = tmp_path / "slow-ack.ini"
    config.write_text(VERBATIM_AUTONOMOUS_CONFIG
                      + "**.medium.ackTurnaround = 60us\n", encoding="utf-8")
    trace = tmp_path / "run.trace"
    assert main(["run", "--config", str(config), "--seed", "15",
                 "--until", "8s", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["validate", "--trace", str(trace), "--config", str(config)]) == 0
    assert "trace ok" in capsys.readouterr().out
    assert main(["validate", "--trace", str(trace)]) == 1
    assert "ack-pairing" in capsys.readouterr().out


def test_validate_names_malformed_line_after_a_transmission(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text(
        "#1\t0.100000000000\thost[0] --> host[1]\tBeacon\n"
        "#1\t0.100000000000\thost[0] --> host[2]\tBeacon\n"
        "#1\t0.100000000000\thost[0] --> host[3]\tBeacon\n"
        "#2\t0.200000000000\thost[1] -> host[0]\tProbe Request\n",
        encoding="utf-8")
    assert main(["validate", "--trace", str(trace)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["grammar: line 4: malformed trace line: "
                   "'#2\\t0.200000000000\\thost[1] -> host[0]\\tProbe Request'",
                   "1 violation(s)"]


def test_sweep_prints_statistics(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    status = main(["sweep", "--seeds", "20", "--out", str(out)])
    assert status == 0
    printed = capsys.readouterr().out
    assert "mean:" in printed
    payload = json.loads(out.read_text())
    assert payload["seeds"] == 20
    assert 1.5 <= payload["mean_s"] <= 3.5


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_every_command_prints_config_warnings(tmp_path, command, capsys):
    typo = tmp_path / "typo.ini"
    typo.write_text("numHosts = 2\n**.host[0].wlan[0].mgmt.goIntnet = 3\n",
                    encoding="utf-8")
    trace = tmp_path / "empty.trace"
    trace.write_text("", encoding="utf-8")
    args = {"run": ["--until", "1s"], "sweep": ["--seeds", "1"],
            "validate": ["--trace", str(trace)]}[command]
    assert main([command, "--config", str(typo), *args]) == 0
    assert capsys.readouterr().err == \
        "warning: line 2: unknown host key 'goIntnet' ignored\n"


def test_zero_hosts_run_no_host(capsys):
    # as parse_config("numHosts = 0") does; 2 is only the default
    assert main(["run", "--hosts", "0", "--until", "1s"]) == 0
    assert capsys.readouterr().out == \
        "seed 1: 0 events, 0 trace rows, formation n/a\n"


def test_zero_host_sweep_has_no_samples(capsys):
    assert main(["sweep", "--hosts", "0", "--seeds", "3"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "discovery samples: 0" in printed
    assert "timeouts: 0" in printed


def test_bad_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("**.host[0].wlan[0].mgmt.WiFiDirectGO = maybe\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--until=-1s"], ["--hosts", "-3"]])
def test_negative_horizon_or_host_count_is_exit_2(args, capsys):
    assert main(["run", *args]) == 2
    assert "negative" in capsys.readouterr().err


def test_negative_seed_count_is_exit_2_and_zero_an_empty_sweep(capsys):
    assert main(["sweep", "--seeds", "-3"]) == 2
    assert capsys.readouterr().err == "error: negative seed count -3\n"
    assert main(["sweep", "--seeds", "0"]) == 0
    assert "seeds: 0 " in capsys.readouterr().out


@pytest.mark.parametrize("text", ["inf", "Infinity", "nan"])
def test_non_finite_horizon_is_exit_2(text, tmp_path, capsys):
    assert main(["run", "--until", text]) == 2
    assert capsys.readouterr().err == f"error: non-finite duration '{text}'\n"
    assert main(["sweep", "--seeds", "1", "--until", text]) == 2
    assert capsys.readouterr().err == f"error: non-finite duration '{text}'\n"
    config = tmp_path / "forever.ini"
    config.write_text(f"numHosts = 2\nhorizon = {text}\n")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == \
        f"error: line 2: bad value for horizon: non-finite duration '{text}'\n"


def test_missing_trace_file_is_exit_2(tmp_path):
    assert main(["validate", "--trace", str(tmp_path / "nope.trace")]) == 2
