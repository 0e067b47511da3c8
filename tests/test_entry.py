"""What a fresh ``ntxb`` process loads, how it ends when its stdout closes, cannot be written or it is interrupted,
and what an interrupted train keeps.

The load and stdout tests start their own interpreter, since the pytest
process has imported every module already and cannot close its own stdout.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ntxbound.cli as cli
import ntxbound.mlp as mlp
import ntxbound.serialize as serialize
import ntxbound.trainer as trainer
from ntxbound.cli import EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, EXIT_STDOUT_ERROR
from ntxbound.serialize import trace_to_csv
from ntxbound.trainer import BLOCK_STEPS, TrainConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESK = ROOT / "configs" / "train_desk.json"


def run(argv, env=(), **kwargs) -> subprocess.Popen:
    """``argv`` in a process that imports the package from ``src``, with ``env`` added to its environment.

    PYTHONUNBUFFERED is dropped, so the process's stdout and stderr are
    buffered, as a user's and CI's are.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    inherited = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.Popen(argv, env={**inherited, **dict(env), "PYTHONPATH": path}, text=True, **kwargs)


def python(*args: str, **kwargs) -> subprocess.Popen:
    return run([sys.executable, *args], **kwargs)


def fresh(code: str):
    """The JSON value a fresh interpreter prints last, after running ``code``."""
    proc = python("-c", code, stdout=subprocess.PIPE)
    out, _ = proc.communicate()
    assert proc.returncode == 0
    return json.loads(out.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('ntxbound'))"


def test_verify_loads_neither_the_trainer_nor_gradcheck(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"ns": [2], "ms": [4], "taus": [0.5], "distributions": ["gaussian"], "trials": 3}))
    loaded = fresh(
        "import json, sys\n"
        "import ntxbound.cli as cli\n"
        f"rc = cli.main(['verify', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        f"print(json.dumps({{'rc': rc, 'loaded': {LOADED}}}))\n"
    )
    assert loaded["rc"] == 0
    assert "ntxbound.trainer" not in loaded["loaded"]
    assert "ntxbound.gradcheck" not in loaded["loaded"]
    assert "ntxbound.mlp" not in loaded["loaded"]


def test_gradcheck_loads_the_network_but_not_the_trainer():
    loaded = fresh(
        "import json, sys\n"
        "import ntxbound.cli as cli\n"
        "rc = cli.main(['gradcheck', '--trials', '1'])\n"
        f"print(json.dumps({{'rc': rc, 'loaded': {LOADED}}}))\n"
    )
    assert loaded["rc"] == 0
    assert {"ntxbound.mlp", "ntxbound.gradcheck"} <= set(loaded["loaded"])
    assert "ntxbound.trainer" not in loaded["loaded"]


def test_the_trainer_runs_the_network_of_mlp():
    assert trainer.Mlp is mlp.Mlp
    assert trainer.forward is mlp.forward


def test_serialize_loads_neither_the_trainer_nor_gradcheck():
    loaded = fresh(f"import json, sys\nimport ntxbound.serialize\nprint(json.dumps({LOADED}))\n")
    assert "ntxbound.serialize" in loaded
    assert "ntxbound.trainer" not in loaded
    assert "ntxbound.gradcheck" not in loaded


def test_report_loads_neither_the_trainer_nor_gradcheck(tmp_path):
    """The trace is written here, by a run in this process; the fresh one only reads it."""
    trace = tmp_path / "train_trace.csv"
    serialize.write_text(trace, serialize.trace_to_csv(trainer.train(trainer.TrainConfig(steps=3))))
    out = tmp_path / "report"
    loaded = fresh(
        "import json, sys\n"
        "import ntxbound.cli as cli\n"
        f"rc = cli.main(['report', '--trace', {str(trace)!r}, '--out', {str(out)!r}])\n"
        f"print(json.dumps({{'rc': rc, 'loaded': {LOADED}}}))\n"
    )
    assert loaded["rc"] == 0
    assert (out / "gap_tightness.json").is_file()
    assert "ntxbound.trainer" not in loaded["loaded"]
    assert "ntxbound.gradcheck" not in loaded["loaded"]
    assert "ntxbound.mlp" not in loaded["loaded"]


def test_the_trainer_runs_on_the_trace_class_of_serialize():
    assert trainer.TrainTrace is serialize.TrainTrace


def test_a_train_config_does_not_load_gradcheck():
    loaded = fresh(
        "import json, sys\n"
        "from ntxbound import cli, serialize\n"
        f"cli.parse_train_config(serialize.load_json({str(DESK)!r}))\n"
        f"print(json.dumps({LOADED}))\n"
    )
    assert {"ntxbound.mlp", "ntxbound.trainer"} <= set(loaded)
    assert "ntxbound.gradcheck" not in loaded


def test_the_networks_and_the_traces_names_resolve_from_their_home_modules():
    loaded = fresh(
        "import json, sys\n"
        "import ntxbound, ntxbound.mlp, ntxbound.serialize\n"
        "homes = [ntxbound.Mlp is ntxbound.mlp.Mlp, ntxbound.forward is ntxbound.mlp.forward,\n"
        "         ntxbound.TrainTrace is ntxbound.serialize.TrainTrace]\n"
        f"print(json.dumps({{'homes': homes, 'loaded': {LOADED}}}))\n"
    )
    assert loaded["homes"] == [True, True, True]
    assert "ntxbound.trainer" not in loaded["loaded"]


def test_every_exported_name_resolves_before_the_trainer_is_loaded():
    names = fresh(
        "import json, sys\n"
        "import ntxbound\n"
        f"before = {LOADED}\n"
        "by_attribute = [name for name in ntxbound.__all__ if getattr(ntxbound, name, None) is not None]\n"
        "star = {}\n"
        "exec('from ntxbound import *', star)\n"
        "listed = dir(ntxbound)\n"
        "print(json.dumps({'all': ntxbound.__all__, 'before': before, 'by_attribute': by_attribute,\n"
        "                  'star': sorted(set(star) - {'__builtins__'}), 'dir': [n for n in ntxbound.__all__ if n in listed]}))\n"
    )
    assert "ntxbound.trainer" not in names["before"]
    assert names["by_attribute"] == names["all"]
    assert names["star"] == sorted(names["all"])
    assert names["dir"] == names["all"]


def test_a_closed_stdout_exits_with_the_pipe_code_and_no_traceback():
    """The printout is far longer than a pipe's buffer, so the run is still printing when its reader goes."""
    proc = python("-m", "ntxbound", "gradcheck", "--trials", "3000", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE == 141
    assert first.startswith("gradcheck loss-level trial   0:")
    assert err == ""  # no traceback, and no "Exception ignored" line from the flush at exit


def _stdout_cases(tmp_path):
    """Each command's argv, on inputs small enough to run in a moment, and the file it writes before it prints."""
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({"ns": [2], "ms": [4], "taus": [0.5], "distributions": ["gaussian"], "trials": 3}))
    train = tmp_path / "train.json"
    train.write_text(json.dumps(dataclasses.asdict(TrainConfig(steps=5))), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    serialize.write_text(trace, trace_to_csv(trainer.train(TrainConfig(steps=5))))
    return {
        "verify": (["--config", str(verify), "--out", str(tmp_path / "v")], tmp_path / "v" / "verify_summary.json"),
        "gradcheck": (["--trials", "2"], None),
        "train": (["--config", str(train), "--out", str(tmp_path / "t")], tmp_path / "t" / "train_summary.json"),
        "report": (["--trace", str(trace), "--out", str(tmp_path / "r")], tmp_path / "r" / "gap_tightness.json"),
    }


COMMANDS = ["verify", "gradcheck", "train", "report"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", COMMANDS)
def test_a_stdout_on_a_full_device_exits_with_one_line(tmp_path, command):
    """Each command's lines fit stdout's buffer, so the write fails in main's flush, after the files are written."""
    args, written = _stdout_cases(tmp_path)[command]
    with open("/dev/full", "w") as full:
        proc = python("-m", "ntxbound", command, *args, stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate()
    assert proc.returncode == EXIT_STDOUT_ERROR == 74
    assert err == f"ntxb {command}: cannot write to stdout: [Errno 28] No space left on device\n"
    assert written is None or written.is_file()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_stderr_on_the_same_full_device_leaves_the_code_alone_to_tell():
    with open("/dev/full", "w") as full:
        proc = python("-m", "ntxbound", "gradcheck", "--trials", "2", stdout=full, stderr=full)
        assert proc.wait() == EXIT_STDOUT_ERROR


@pytest.mark.parametrize("command", COMMANDS)
def test_a_closed_stdout_runs_as_on_devnull(tmp_path, command):
    """The command runs to its end with its own exit code; nothing is printed on stderr."""
    args, written = _stdout_cases(tmp_path)[command]
    argv = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ntxbound", command, *args]
    proc = run(argv, stderr=subprocess.PIPE)
    _, err = proc.communicate()
    assert (proc.returncode, err) == (0, "")
    assert written is None or written.is_file()


def test_a_path_stdout_cannot_encode_is_printed_escaped(tmp_path):
    """Under a strict UTF-8 stdout, the report line quotes an --out named by a byte that is not UTF-8 as ``\\udcff``."""
    args, _ = _stdout_cases(tmp_path)["report"]
    out = os.fsdecode(bytes(tmp_path) + b"/r\xff")
    proc = python("-m", "ntxbound", "report", *args[:2], "--out", out, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  env={"PYTHONIOENCODING": "utf-8:strict"})
    stdout, err = proc.communicate()
    assert (proc.returncode, err) == (0, "")
    assert stdout.endswith("written to " + out.encode("utf-8", "backslashreplace").decode() + "\n")
    assert (Path(out) / "gap_tightness.json").is_file()


def test_a_path_a_surrogateescape_stdout_can_print_keeps_its_bytes(tmp_path):
    """Under a surrogateescape stdout, a C locale's say, the report line holds the --out's own bytes."""
    args, _ = _stdout_cases(tmp_path)["report"]
    out = os.fsdecode(bytes(tmp_path) + b"/r\xff")
    proc = python("-m", "ntxbound", "report", *args[:2], "--out", out, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  env={"PYTHONIOENCODING": "utf-8:surrogateescape"}, errors="surrogateescape")
    stdout, err = proc.communicate()
    assert (proc.returncode, err) == (0, "")
    assert stdout.endswith("written to " + out + "\n")


def _interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    ("argv", "patched", "line"),
    [
        (["verify"], "cmd_verify", "ntxb verify: interrupted"),
        (["gradcheck"], "cmd_gradcheck", "ntxb gradcheck: interrupted"),
        (["train", "--config", "c.json", "--out", "o"], "cmd_train", "ntxb train: interrupted"),
        (["report", "--trace", "t.csv", "--out", "o"], "cmd_report", "ntxb report: interrupted"),
        (["verify"], "build_parser", "ntxb: interrupted"),  # before a command is parsed
    ],
)
def test_an_interrupt_exits_130_with_one_line_and_no_traceback(argv, patched, line, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ntxb", *argv])
    monkeypatch.setattr(cli, patched, _interrupt)
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == EXIT_INTERRUPTED == 130
    assert capsys.readouterr() == ("", line + "\n")


def _interrupt_call(monkeypatch, name: str, call: int) -> None:
    """Call ``call`` (from 0) of trainer.<name> raises KeyboardInterrupt; every other call runs as before."""
    real, calls = getattr(trainer, name), []

    def interrupted(*args):
        calls.append(None)
        if len(calls) == call + 1:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(trainer, name, interrupted)


@pytest.mark.parametrize(
    ("name", "call", "completed"),
    [
        ("_augment_batch", 0, 0),  # at the first step's start
        ("_augment_batch", 70, 70),  # at a step's start, inside a block
        ("_augment_batch", BLOCK_STEPS, BLOCK_STEPS),  # at the start of a block's first step
        ("_latent_grad", 5, 5),  # partway through a step, its pass kept in the block
        ("_latent_grad", BLOCK_STEPS - 1, BLOCK_STEPS - 1),  # partway through a block's last step
        ("_evaluation", 0, BLOCK_STEPS),  # in the first block's flush
        ("_evaluation", 1, 2 * BLOCK_STEPS),  # in the second block's flush
        ("_evaluation", 3, 200),  # in the last, short block's flush
    ],
)
def test_an_interrupted_train_writes_the_trace_of_its_completed_steps(tmp_path, monkeypatch, capsys, name, call, completed):
    """The trace written is the uninterrupted run's first rows, byte for byte, and the run exits 130."""
    cfg = TrainConfig(steps=200)
    config = tmp_path / "train.json"
    config.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
    want = "".join(trace_to_csv(trainer.train(cfg)).splitlines(keepends=True)[: completed + 1])
    _interrupt_call(monkeypatch, name, call)
    monkeypatch.setattr(sys, "argv", ["ntxb", "train", "--config", str(config), "--out", str(tmp_path / "run")])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == EXIT_INTERRUPTED
    assert capsys.readouterr() == ("", "ntxb train: interrupted\n")
    assert (tmp_path / "run" / "train_trace.csv").read_bytes() == want.encode()
    summary = json.loads((tmp_path / "run" / "train_summary.json").read_text(encoding="utf-8"))
    assert (summary["status"], summary["steps_completed"]) == ("interrupted", completed)


def test_a_train_interrupted_while_it_is_set_up_writes_nothing(tmp_path, monkeypatch, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps(dataclasses.asdict(TrainConfig(steps=5))), encoding="utf-8")
    _interrupt_call(monkeypatch, "gen_synthetic", 0)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert list((tmp_path / "run").iterdir()) == []
