"""The command-line toolchain (python -m repro …)."""

import pathlib
import sys

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "SequencedMerger" in out
    assert len(out.strip().splitlines()) == 18


def test_in_process_main_keeps_sigpipe_disposition(capsys):
    """``python -m repro`` restores the default SIGPIPE action so it dies
    quietly under ``| head``; an in-process main() call must not, or a
    later write to a dead subprocess's stdin kills the host process (this
    test runner included) instead of raising BrokenPipeError."""
    import signal

    if not hasattr(signal, "SIGPIPE"):
        pytest.skip("no SIGPIPE on this platform")
    before = signal.getsignal(signal.SIGPIPE)
    assert main(["list"]) == 0
    assert signal.getsignal(signal.SIGPIPE) == before


def test_compile_to_stdout(tmp_path, capsys):
    src = tmp_path / "pipe.reo"
    src.write_text("Pipe(a;b) = Fifo1(a;b)\n")
    assert main(["compile", str(src)]) == 0
    out = capsys.readouterr().out
    assert "def make_connector" in out


def test_compile_to_file(tmp_path, capsys):
    src = tmp_path / "pipe.reo"
    src.write_text("Pipe(a;b) = Fifo1(a;b)\n")
    out_py = tmp_path / "gen.py"
    assert main(["compile", str(src), "-o", str(out_py)]) == 0
    text = out_py.read_text()
    assert "PROTOCOL_NAME = 'Pipe'" in text
    # the generated module is importable and runnable
    import types

    mod = types.ModuleType("cli_gen")
    exec(compile(text, str(out_py), "exec"), mod.__dict__)
    conn = mod.make_connector()
    from repro.runtime.ports import mkports

    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    outs[0].send("v")
    assert ins[0].recv() == "v"
    conn.close()


def test_dot_graph(capsys):
    assert main(["dot", "graph", "Replicator", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_dot_automaton(capsys):
    assert main(["dot", "automaton", "Merger", "2"]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and "->" in out


def test_run_program(tmp_path, capsys, monkeypatch):
    src = tmp_path / "prog.reo"
    src.write_text(
        "P(a;b) = Fifo1(a;b)\n"
        "main = P(x;y) among T.send(x) and T.recv(y)\n"
    )
    tasks = tmp_path / "cli_tasks_mod.py"
    tasks.write_text(
        "class T:\n"
        "    @staticmethod\n"
        "    def send(out):\n"
        "        out.send(41)\n"
        "    @staticmethod\n"
        "    def recv(inp):\n"
        "        return inp.recv() + 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert main(["run", str(src), "--tasks", "cli_tasks_mod"]) == 0
    out = capsys.readouterr().out
    assert "42" in out


def test_fig12_passthrough(capsys):
    assert main(["fig12", "--connector", "Replicator", "--ns", "2",
                 "--window", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Pie chart" in out


def test_fig13_passthrough(capsys):
    assert main(["fig13", "--program", "ep", "--classes", "S", "--ns", "2"]) == 0
    out = capsys.readouterr().out
    assert "EP, size S" in out


def test_verify_ok(tmp_path, capsys):
    src = tmp_path / "ok.reo"
    src.write_text("P(a;b) = Fifo1(a;b)\n")
    assert main(["verify", str(src)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_problems(tmp_path, capsys):
    src = tmp_path / "bad.reo"
    src.write_text("Oops(a,b;c) = Sync(a;c)\n")
    assert main(["verify", str(src), "--protocol", "Oops"]) == 1
    out = capsys.readouterr().out
    assert "dead-port" in out


def test_obs_connector_prometheus(capsys):
    assert main(["obs", "--connector", "FifoChain", "-n", "3",
                 "--window", "0.05", "--format", "prometheus"]) == 0
    captured = capsys.readouterr()
    assert "repro_engine_steps_total" in captured.out
    assert 'connector="FifoChain"' in captured.out
    assert "scenario:" in captured.err


@pytest.mark.fault_stress
def test_obs_farm_all_formats(tmp_path, capsys, monkeypatch):
    import json

    assert main(["obs", "--example", "overload_shedding_farm",
                 "--format", "all", "-o", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "Perfetto" in err or "perfetto" in err
    assert (tmp_path / "obs-metrics.prom").exists()
    assert (tmp_path / "obs-metrics.json").exists()
    # the Chrome trace must be loadable: valid JSON with the traceEvents
    # array Perfetto expects, including the steps lane metadata
    doc = json.loads((tmp_path / "obs-trace.json").read_text())
    events = doc["traceEvents"]
    assert any(
        e["ph"] == "M" and e["args"].get("name") == "steps" for e in events
    )
    assert any(e["ph"] == "X" for e in events)
