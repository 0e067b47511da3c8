"""CLI contract: commands, exit codes, config validation, and file determinism."""

import argparse
import contextlib
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ntxbound.bounds as bounds
import ntxbound.cli as cli
import ntxbound.gradcheck as gc
import ntxbound.serialize as serialize
import ntxbound.trainer as trainer
from ntxbound.bounds import default_grid
from ntxbound.cli import main, parse_train_config, parse_verify_config, report_aggregates
from ntxbound.errors import ConfigError, InvalidDatasetParamsError, InvalidGridError
from ntxbound.serialize import TRACE_COLUMNS, dumps, load_json, parse_trace_csv, trace_to_csv, write_text
from ntxbound.trainer import AugmentConfig, DatasetParams, TrainConfig, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture
def verify_config(tmp_path):
    path = tmp_path / "verify.json"
    write_json(
        path,
        {
            "ns": [2, 4],
            "ms": [3],
            "taus": [0.5, 1.0],
            "distributions": ["uniform_sphere", "gaussian", "clustered"],
            "trials": 40,
            "seed": 5,
        },
    )
    return path


QUICK = TrainConfig(
    n_pairs=4,
    input_dim=4,
    encoder_dims=(8, 8),
    projector_dims=(8, 4),
    tau=0.5,
    learning_rate=0.05,
    steps=30,
    seed=1,
    augment=AugmentConfig(noise_sigma=0.1, dropout_prob=0.1),
    dataset=DatasetParams(clusters=2, spread=0.2, points=32),
)


def quick_train_config(**overrides):
    doc = dataclasses.asdict(QUICK)
    doc.update(overrides)
    return doc


def assert_usage_error(argv, capsys):
    """Exit 2 with one ``ntxb <command>: ...`` line on stderr and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ntxb {argv[0]}: ") and err.count("\n") == 1, err
    return err


VERIFY_DOC = {"ns": [2], "ms": [3], "taus": [1.0], "distributions": ["gaussian"], "trials": 5}
TRAIN_DOC = dataclasses.asdict(QUICK)


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


class TestConfigLoader:
    def test_train_config_round_trips(self):
        assert QUICK != TrainConfig()
        assert parse_train_config(dataclasses.asdict(QUICK)) == QUICK
        assert parse_train_config(json.loads(dumps(dataclasses.asdict(QUICK)))) == QUICK

    def test_shipped_configs_are_the_defaults(self):
        assert parse_train_config(load_json(CONFIGS / "train_desk.json")) == TrainConfig()
        assert parse_verify_config(load_json(CONFIGS / "verify_default.json")) == (default_grid(), 1000, 0)

    def test_verify_seed_defaults_to_zero(self):
        assert parse_verify_config(VERIFY_DOC)[2] == 0

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("train", {**TRAIN_DOC, "n_pairs": True}),
            ("train", {**TRAIN_DOC, "steps": 30.0}),
            ("train", {**TRAIN_DOC, "augment": [0.1, 0.1]}),
            ("train", {**TRAIN_DOC, "dataset": {**TRAIN_DOC["dataset"], "shape": "ring"}}),
            ("train", {**TRAIN_DOC, "augment": without(TRAIN_DOC["augment"], "dropout_prob")}),
            ("train", {**TRAIN_DOC, "encoder_dims": [8, "8"]}),
            ("train", {**TRAIN_DOC, "projector_dims": []}),
            ("train", {**TRAIN_DOC, "tau": "0.5"}),
            ("train", without(TRAIN_DOC, "steps")),
            ("train", {**TRAIN_DOC, "dataset": {**TRAIN_DOC["dataset"], "points": False}}),
            ("verify", {**VERIFY_DOC, "distributions": [1]}),
            ("verify", {**VERIFY_DOC, "ns": 2}),
            ("verify", {**VERIFY_DOC, "taus": [True]}),
            ("verify", {**VERIFY_DOC, "trials": 5.0}),
            ("verify", {**VERIFY_DOC, "seed": "0"}),
            ("verify", without(VERIFY_DOC, "trials")),
            ("verify", without(VERIFY_DOC, "ms")),
            ("verify", {**VERIFY_DOC, "trials": 0}),
            ("verify", {**VERIFY_DOC, "seed": -1}),
            # over the memory budget: gen_synthetic's (clusters, input_dim) means, or every step's record
            ("train", {**TRAIN_DOC, "dataset": {**TRAIN_DOC["dataset"], "clusters": 10**12}}),
            ("train", {**TRAIN_DOC, "dataset": {**TRAIN_DOC["dataset"], "clusters": 2**70}}),
            ("train", {**TRAIN_DOC, "steps": 2 * 10**6}),
        ],
    )
    def test_rejected_documents_exit_2(self, tmp_path, capsys, monkeypatch, command, doc):
        """Refused while parsing: nothing runs and no output directory is made."""

        def not_run(*args):
            raise AssertionError("command ran")

        monkeypatch.setattr(trainer, "train", not_run)
        monkeypatch.setattr(cli, "monte_carlo_verify", not_run)
        path = tmp_path / "cfg.json"
        write_json(path, doc)
        assert_usage_error([command, "--config", str(path), "--out", str(tmp_path / "out")], capsys)
        assert not (tmp_path / "out").exists()

    def test_unknown_key_message_lists_every_allowed_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, {**VERIFY_DOC, "bogus": 1})
        err = assert_usage_error(["verify", "--config", str(path)], capsys)
        assert "['distributions', 'ms', 'ns', 'seed', 'taus', 'trials']" in err

    @pytest.mark.parametrize(
        ("command", "doc", "key"),
        [("verify", VERIFY_DOC, "trials"), ("train", TRAIN_DOC, "steps"), ("train", TRAIN_DOC, "noise_sigma")],
        ids=["verify-top-level", "train-top-level", "train-augment"],
    )
    def test_duplicate_key_exits_2(self, tmp_path, capsys, monkeypatch, command, doc, key):
        """A key given twice in one object, at the top or nested in ``augment``, is refused rather than last-wins."""

        def not_run(*args):
            raise AssertionError("command ran")

        monkeypatch.setattr(trainer, "train", not_run)
        monkeypatch.setattr(cli, "monte_carlo_verify", not_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace(f'"{key}": ', f'"{key}": 3, "{key}": ', 1), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            load_json(path)
        err = assert_usage_error([command, "--config", str(path), "--out", str(tmp_path / "out")], capsys)
        assert f"duplicate key '{key}'" in err
        assert not (tmp_path / "out").exists()


class TestUnusableInputs:
    """Inputs that once ended in a traceback (exit 1) are usage errors."""

    @pytest.mark.parametrize("tau", [1e-308, 1e300, 1e308])
    def test_verify_extreme_tau(self, tmp_path, capsys, tau):
        path = tmp_path / "cfg.json"
        write_json(path, {**VERIFY_DOC, "ns": [3], "ms": [8], "taus": [tau], "trials": 100})
        assert_usage_error(["verify", "--config", str(path), "--out", str(tmp_path / "out")], capsys)

    def test_gradcheck_extreme_tau(self, capsys):
        assert_usage_error(["gradcheck", "--trials", "1", "--tau", "1e-320"], capsys)

    def test_train_extreme_tau(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, quick_train_config(tau=1e-320))
        assert_usage_error(["train", "--config", str(path), "--out", str(tmp_path / "out")], capsys)

    def test_non_utf8_config_and_trace(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1"
        latin1.write_bytes(b'{"ns": "\xe9"}')
        assert_usage_error(["verify", "--config", str(latin1)], capsys)
        assert_usage_error(["train", "--config", str(latin1), "--out", str(tmp_path / "out")], capsys)
        assert_usage_error(["report", "--trace", str(latin1), "--out", str(tmp_path / "out")], capsys)

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, quick_train_config(tau=10**400))
        err = assert_usage_error(["train", "--config", str(path), "--out", str(tmp_path / "out")], capsys)
        assert "tau: expected a number within float range, got an integer of 401 digits" in err

    def test_integer_of_too_many_digits(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quick_train_config()).replace('"steps": 30', '"steps": ' + "9" * 5000))
        assert_usage_error(["train", "--config", str(path), "--out", str(tmp_path / "out")], capsys)

    def test_deeply_nested_config(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        assert_usage_error(["verify", "--config", str(deep)], capsys)

    @pytest.mark.parametrize("below", [False, True])
    def test_out_blocked_by_a_file(self, tmp_path, capsys, monkeypatch, below):
        blocker = tmp_path / "afile"
        blocker.write_text("x", encoding="utf-8")
        out = str(blocker / "sub" if below else blocker)
        cfg = tmp_path / "train.json"
        write_json(cfg, quick_train_config(steps=2))

        def must_not_sample(*args):
            raise AssertionError("verify sampled before creating its output directory")

        monkeypatch.setattr(cli, "monte_carlo_verify", must_not_sample)
        assert_usage_error(["verify", "--out", out], capsys)
        assert_usage_error(["train", "--config", str(cfg), "--out", out], capsys)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert_usage_error(["report", "--trace", str(tmp_path / "run" / "train_trace.csv"), "--out", out], capsys)

    @pytest.mark.parametrize(
        "command, name",
        [
            ("verify", "verify_summary.json"),
            ("train", "train_trace.csv"),
            ("train", "train_summary.json"),
            ("report", "series_loss_total.csv"),
            ("report", "gap_tightness.json"),
        ],
    )
    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, monkeypatch, command, name):
        """Every output name is checked before any work: exit 2, nothing computed, nothing written."""
        cfg = tmp_path / "train.json"
        write_json(cfg, quick_train_config(steps=2))
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        capsys.readouterr()
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)

        def must_not_run(*args):
            raise AssertionError(f"{command} started work with {name} blocked")

        for attr in ("monte_carlo_verify", "report_aggregates"):
            monkeypatch.setattr(cli, attr, must_not_run)
        monkeypatch.setattr(trainer, "train", must_not_run)
        argv = {
            "verify": ["verify"],
            "train": ["train", "--config", str(cfg)],
            "report": ["report", "--trace", str(tmp_path / "run" / "train_trace.csv")],
        }[command]
        err = assert_usage_error([*argv, "--out", str(out)], capsys)
        assert name in err
        assert [p.name for p in out.iterdir()] == [name]

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        """Checked before sampling. Permission bits are faked, since a superuser passes any real ones."""

        def must_not_sample(*args):
            raise AssertionError("verify sampled with an unwritable output directory")

        monkeypatch.setattr(serialize.os, "access", lambda path, mode: False)
        monkeypatch.setattr(cli, "monte_carlo_verify", must_not_sample)
        err = assert_usage_error(["verify", "--out", str(tmp_path / "out")], capsys)
        assert "not writable" in err

    def test_write_failure_after_the_check_exits_2(self, tmp_path, capsys, monkeypatch):
        """A name taken between the check and the write still ends in exit 2, and earlier outputs are whole."""
        cfg = tmp_path / "train.json"
        write_json(cfg, quick_train_config(steps=2))
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "ref")])
        capsys.readouterr()
        (tmp_path / "out" / "train_summary.json").mkdir(parents=True)
        monkeypatch.setattr(cli, "check_writable", lambda path: None)
        err = assert_usage_error(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert "train_summary.json" in err
        trace = "train_trace.csv"
        assert (tmp_path / "out" / trace).read_bytes() == (tmp_path / "ref" / trace).read_bytes()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["train_summary.json", trace]


class TestVerifyCommand:
    def test_config_run_succeeds(self, tmp_path, verify_config):
        rc = main(["verify", "--config", str(verify_config), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "verify_summary.json").read_text())
        assert doc["violations_paper"] == 0
        assert doc["violations_strict"] == 0
        assert doc["total_trials"] == 40 * 12
        assert doc["min_variant_margin"] >= 0.0

    def test_seed_flag_is_deterministic(self, tmp_path, verify_config):
        rc1 = main(["verify", "--config", str(verify_config), "--seed", "7", "--out", str(tmp_path / "a")])
        rc2 = main(["verify", "--config", str(verify_config), "--seed", "7", "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        a = (tmp_path / "a" / "verify_summary.json").read_bytes()
        b = (tmp_path / "b" / "verify_summary.json").read_bytes()
        assert a == b

    def test_small_chunks_do_not_change_output(self, tmp_path, verify_config, monkeypatch):
        """A byte budget that splits every cell into several stacks gives the same bytes."""
        main(["verify", "--config", str(verify_config), "--out", str(tmp_path / "default")])
        monkeypatch.setattr(bounds, "CHUNK_BYTES", 1400)  # 2 trials per stack at N = 2, 1 at N = 4
        stacks = []
        real = bounds._sample_rows
        monkeypatch.setattr(bounds, "_sample_rows", lambda d, trials, *a: stacks.append(trials) or real(d, trials, *a))
        main(["verify", "--config", str(verify_config), "--out", str(tmp_path / "chunked")])
        assert sorted(set(stacks)) == [1, 2]
        assert (tmp_path / "default" / "verify_summary.json").read_bytes() == (
            tmp_path / "chunked" / "verify_summary.json"
        ).read_bytes()

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, {"ns": [2], "ms": [3], "taus": [1.0], "distributions": ["gaussian"], "trials": 5, "bogus": 1})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_invalid_grid_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, {"ns": [2], "ms": [3], "taus": [0.0], "distributions": ["gaussian"], "trials": 5})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_violations_exit_1(self, tmp_path, verify_config, monkeypatch):
        """The exit-1 branch; a violation cannot be produced honestly, so stub the verifier."""
        real = cli.monte_carlo_verify

        def rigged(grid, trials, seed):
            summary = real(grid, trials, seed)
            return type(summary)(**{**summary.__dict__, "violations_paper": 1})

        monkeypatch.setattr(cli, "monte_carlo_verify", rigged)
        assert main(["verify", "--config", str(verify_config), "--out", str(tmp_path / "v")]) == 1


class TestParser:
    def test_every_option_has_help(self):
        """Each option of each subcommand says what it does in --help."""
        (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            for action in parser._actions:
                assert action.help, f"ntxb {name} {'/'.join(action.option_strings)} has no help"


class TestGradcheckCommand:
    def test_defaults_pass(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "loss-level" in out and "end-to-end" in out and "PASS" in out

    def test_zero_trials_exits_2(self):
        assert main(["gradcheck", "--trials", "0"]) == 2

    @pytest.mark.parametrize(
        ("flag", "value"), [("--trials", "-2"), ("--n-pairs", "-1"), ("--n-pairs", "0"), ("--dim", "0")]
    )
    def test_count_below_1_exits_2_before_any_trial(self, flag, value, capsys):
        assert main(["gradcheck", "--trials", "3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ntxb gradcheck: ") and captured.err.count("\n") == 1, captured.err

    def test_corrupt_gradient_exits_1(self, capsys, monkeypatch):
        """A wrong analytic gradient at either level fails the check: 1e-2 on one entry of every trial's gradient."""
        real_latent, real_param = gc._latent_grad, gc.Mlp.backward

        def corrupt_latent(p):
            grad = real_latent(p)
            grad[..., 0, 0] += 1e-2
            return grad

        def corrupt_param(model, trace, grad_out, out=None):
            grad = real_param(model, trace, grad_out, out)
            grad[..., 0] += 1e-2
            return grad

        for level, owner, name, corrupt, tol in (
            ("loss-level", gc, "_latent_grad", corrupt_latent, gc.LOSS_LEVEL_TOL),
            ("end-to-end", gc.Mlp, "backward", corrupt_param, gc.END_TO_END_TOL),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, corrupt)
                assert main(["gradcheck", "--trials", "2"]) == 1
            out = capsys.readouterr().out
            lines = [line for line in out.splitlines() if line.startswith(f"gradcheck {level} trial")]
            errors = [float(line.split()[7]) for line in lines]
            assert len(errors) == 2 and min(errors) > tol and out.endswith("-> FAIL\n")


class _Discard:
    """A stdout that keeps nothing, so the printout takes no memory of its own."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGradcheckPrintout:
    def test_memory_is_flat_in_trials(self, monkeypatch, gradcheck_chunks):
        """Lines are printed as each group is checked and only maxima are kept, so 10x the trials keeps the peak.

        Groups of 39 loss-level and 77 end-to-end trials are full at both trial counts. CPython keeps freed
        tuples on per-size free lists, which a run would fill as it goes; they are filled first, so the
        peaks count only what the run holds. Allocator caches still leave a few KiB that differ between
        runs, so the groups are sized to make that small beside what a group holds.
        """
        monkeypatch.setattr(bounds, "CHUNK_BYTES", 160 << 10)
        peaks = {}
        with contextlib.redirect_stdout(_Discard()):
            main(["gradcheck", "--trials", "80"])  # warm-up
            for trials in (80, 800):
                free_lists = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]
                del free_lists
                peaks[trials] = _traced_peak(["gradcheck", "--trials", str(trials)])
        assert {chunk for _, chunk in gradcheck_chunks} == {39, 77}
        assert peaks[800] <= 1.1 * peaks[80]


def _over_budget_argv(command, tmp_path):
    """A command line whose least run needs more than the memory budget; nothing else is out of range."""
    if command == "gradcheck":
        return ["gradcheck", "--trials", "1", "--n-pairs", "2", "--dim", str(10**9)]
    path = tmp_path / "big.json"
    if command == "verify":
        write_json(path, {"ns": [2, 20000], "ms": [8], "taus": [0.5], "distributions": ["gaussian"], "trials": 1})
    else:
        doc = dataclasses.asdict(TrainConfig())
        doc["dataset"]["points"] = 10**9
        write_json(path, doc)
    return [command, "--config", str(path), "--out", str(tmp_path / "out")]


class TestMemoryGuard:
    @pytest.mark.parametrize("command", ["verify", "gradcheck", "train"])
    def test_over_budget_exits_2_before_any_draw(self, command, tmp_path, capsys, monkeypatch):
        """The estimate alone refuses the input: one stderr line, exit 2, no draw, nothing written."""

        def no_draw(*key):
            raise AssertionError(f"stream {key} drawn")

        for module in (bounds, gc, trainer):
            monkeypatch.setattr(module, "_stream", no_draw)
        assert main(_over_budget_argv(command, tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "out").exists()
        assert err.count("\n") == 1 and "memory budget" in err and err.startswith(f"ntxb {command}: ")


class TestTrainCommand:
    def test_run_writes_trace_and_summary(self, tmp_path):
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config())
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 0
        lines = (tmp_path / "run" / "train_trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 30 + 1
        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["steps_completed"] == 30
        assert summary["min_strict_gap"] >= -1e-9

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config())
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        for name in ("train_trace.csv", "train_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_divergence_exits_1_and_is_recorded(self, tmp_path):
        """Overflow-scale learning rate; moderate ones only stall because the
        loss depends on cosines, which are scale-invariant."""
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config(learning_rate=1e80, steps=10))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 1
        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
        assert summary["status"] == "nonfinite_loss"
        assert summary["nonfinite_step"] is not None
        assert summary["steps_completed"] == summary["nonfinite_step"]

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config(extra_field=True))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_invalid_value_exits_2(self, tmp_path):
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config(tau=-1.0))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_bound_violation_exits_3(self, tmp_path, monkeypatch):
        """Exit-3 branch, driven by a stubbed trainer that writes a violated gap into its trace's column: the honest
        math cannot violate."""
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config(steps=2))

        real_train = trainer.train

        def rigged(cfg):
            trace = real_train(cfg)
            trace.strict_gap[0] = -1e-3
            return trace

        monkeypatch.setattr(trainer, "train", rigged)
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 3


INPUT_FLAGS = [["train", "--config"], ["verify", "--config"], ["report", "--trace"]]


@pytest.mark.parametrize("argv", INPUT_FLAGS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "make, fault", [(None, "not found"), (Path.mkdir, "is not a regular file")], ids=["missing", "dir"]
)
def test_a_missing_or_non_file_input_exits_2_saying_which(tmp_path, capsys, argv, make, fault):
    path = tmp_path / "input"
    if make is not None:
        make(path)
    assert main([*argv, str(path), "--out", str(tmp_path / "out")]) == 2
    kind = argv[1].removeprefix("--")
    assert capsys.readouterr().err == f"ntxb {argv[0]}: {kind} file {fault}: {path}\n"
    assert not (tmp_path / "out").exists()


class TestReportCommand:
    def test_series_files_for_all_metrics(self, tmp_path):
        cfg_path = tmp_path / "train.json"
        write_json(cfg_path, quick_train_config(steps=5))
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        rc = main(["report", "--trace", str(tmp_path / "run" / "train_trace.csv"), "--out", str(tmp_path / "rep")])
        assert rc == 0
        for metric in TRACE_COLUMNS[1:]:
            series = (tmp_path / "rep" / f"series_{metric}.csv").read_text().splitlines()
            assert series[0] == "metric,step,value"
            assert len(series) == 5 + 1
            assert series[1].startswith(f"{metric},0,")
        assert (tmp_path / "rep" / "gap_tightness.json").exists()

    def test_missing_trace_exits_2(self, tmp_path):
        assert main(["report", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    def test_empty_trace_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["report", "--trace", str(empty), "--out", str(tmp_path)]) == 2

    def test_corrupt_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,loss_total\n0,oops\n", encoding="utf-8")
        assert main(["report", "--trace", str(bad), "--out", str(tmp_path)]) == 2

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        header = ",".join(TRACE_COLUMNS)
        trace = tmp_path / "trace.csv"
        trace.write_text(header + "\n0,nan," + ",".join(["1"] * 8) + "\n", encoding="utf-8")
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_repeated_step_exits_2(self, tmp_path, capsys):
        header = ",".join(TRACE_COLUMNS)
        row = ",".join(["1"] * 9)
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{header}\n0,{row}\n1,{row}\n1,{row}\n", encoding="utf-8")
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 2
        assert "step 1" in capsys.readouterr().err

    def test_hand_built_trace_aggregates(self, tmp_path):
        """Two rows with easy numbers; min/mean/final computed by hand."""
        header = ",".join(TRACE_COLUMNS)
        row0 = "0," + ",".join(["1"] * 6) + ",0.25,0.5,1"
        row1 = "1," + ",".join(["1"] * 6) + ",0.75,0.1,1"
        trace = tmp_path / "trace.csv"
        trace.write_text(header + "\n" + row0 + "\n" + row1 + "\n", encoding="utf-8")
        rc = main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")])
        assert rc == 0
        agg = json.loads((tmp_path / "rep" / "gap_tightness.json").read_text())
        assert agg["paper_gap"] == {"min": 0.25, "mean": 0.5, "final": 0.75}
        assert agg["strict_gap"] == {"min": 0.1, "mean": 0.3, "final": 0.1}

    def test_gap_sum_past_float_max_keeps_a_finite_mean(self, tmp_path):
        """Two paper gaps of 1e308 sum to inf in float64; their mean is still 1e308, and the report exits 0."""
        row = ",".join(["1"] * 6) + ",1e308,0.5,1"
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{','.join(TRACE_COLUMNS)}\n0,{row}\n1,{row}\n", encoding="utf-8")
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 0
        agg = json.loads((tmp_path / "rep" / "gap_tightness.json").read_text())
        assert agg["paper_gap"] == {"min": 1e308, "mean": 1e308, "final": 1e308}
        assert agg["strict_gap"]["mean"] == 0.5

    def test_gap_mean_of_mixed_magnitudes_is_summed_exactly(self, tmp_path):
        """Paper gaps 1, 1e100, 1, -1e100: a plain float sum loses both ones, so the mean read 0, not 0.5."""
        trace = tmp_path / "trace.csv"
        rows = [f"{step},{','.join(['1'] * 6)},{gap},0.5,1" for step, gap in enumerate(["1", "1e100", "1", "-1e100"])]
        trace.write_text("\n".join([",".join(TRACE_COLUMNS), *rows, ""]), encoding="utf-8")
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 0
        agg = json.loads((tmp_path / "rep" / "gap_tightness.json").read_text())
        assert agg["paper_gap"] == {"min": -1e100, "mean": 0.5, "final": -1e100}

    def test_errors_name_the_line_of_the_file_blank_lines_included(self, tmp_path, capsys):
        row = ",".join(["1"] * 9)
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{','.join(TRACE_COLUMNS)}\n\n0,{row}\n1,x,{row[2:]}\n", encoding="utf-8")
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err.startswith("ntxb report: trace line 4 is not numeric: ")

    def test_crlf_line_ends_give_the_same_report(self, tmp_path):
        text = trace_to_csv(train(dataclasses.replace(QUICK, steps=5)))
        for name, ends in (("lf", "\n"), ("crlf", "\r\n")):
            (tmp_path / f"{name}.csv").write_bytes(text.replace("\n", ends).encode())
            assert main(["report", "--trace", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
        for written in (tmp_path / "lf").iterdir():
            assert (tmp_path / "crlf" / written.name).read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("step", [-(2**63) - 1, 2**63])
    def test_a_step_beyond_int64_exits_2(self, tmp_path, capsys, step):
        """A trace's step column is int64, and a longer step would make each row cost more than its row bytes."""
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{','.join(TRACE_COLUMNS)}\n{step},{','.join(['1'] * 9)}\n", encoding="utf-8")
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == f"ntxb report: trace line 2: step {step} does not fit in int64\n"

    def test_each_row_adds_at_most_its_row_bytes(self, tmp_path):
        """Traced peaks of the report on the first 40 and 400 rows of a desk trace differ by at most
        _REPORT_ROW_BYTES per row, which is no more than a train step's _RECORD_BYTES."""
        lines = trace_to_csv(train(TrainConfig(steps=400))).splitlines(keepends=True)
        peaks = []
        for rows in (40, 400):
            trace = tmp_path / f"trace{rows}.csv"
            trace.write_text("".join(lines[: rows + 1]), encoding="utf-8")
            argv = ["report", "--trace", str(trace), "--out", str(tmp_path / f"rep{rows}")]
            assert main(argv) == 0  # warm-up: first-call allocations are not the run's
            peaks.append(_traced_peak(argv))
        growth = (peaks[1] - peaks[0]) / 360
        assert 0 < growth <= serialize._REPORT_ROW_BYTES <= trainer._RECORD_BYTES

    def test_the_longest_run_train_admits_can_be_reported(self, tmp_path, monkeypatch):
        """The longest run at the smallest layout that TrainConfig admits is refused one step later, and the line
        count of its trace passes the report's guard; the count is stubbed, so no large file is written."""
        smallest = dict(n_pairs=2, input_dim=1, encoder_dims=(1,), projector_dims=(1,))
        smallest["dataset"] = DatasetParams(clusters=1, points=4)
        steps = 1_677_713
        TrainConfig(steps=steps, **smallest)
        with pytest.raises(InvalidDatasetParamsError, match="memory budget"):
            TrainConfig(steps=steps + 1, **smallest)
        longest_row = ",".join([str(steps - 1), *["-1.2345678901234567e-100"] * 9])  # 24 characters a float at most
        trace = tmp_path / "trace.csv"
        trace.write_text(trace_to_csv(train(TrainConfig(steps=2, **smallest))), encoding="utf-8")
        monkeypatch.setattr(serialize, "_count_lines", lambda p: (steps + 2, len(longest_row)))  # header, rows, end
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 0

    def test_the_longest_line_counts_towards_the_guard(self, tmp_path, capsys, monkeypatch):
        """One long line, which the parse holds at once, is refused before parsing however few lines there are."""
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{','.join(TRACE_COLUMNS)}\n0," + "0" * (1 << 20) + f"1{',1' * 8}\n", encoding="utf-8")
        monkeypatch.setattr(bounds, "MEMORY_BUDGET", 3 << 20)
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 2
        assert "memory budget" in capsys.readouterr().err
        monkeypatch.setattr(bounds, "MEMORY_BUDGET", 4 << 20)
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 0

    @pytest.mark.parametrize("lengths", [[5, 3, 0], [70_000, 10], [65_535, 65_536, 1], [200_000], [10, 131_072, 2]])
    def test_lines_and_the_longest_line_are_counted_across_reads(self, tmp_path, lengths):
        """Lines of the given lengths, each but the last ended by a newline: lines spanning a 64 KiB read are
        measured exactly."""
        path = tmp_path / "lines"
        path.write_bytes(b"\n".join(b"x" * n for n in lengths))
        lines, longest = serialize._count_lines(path)
        assert lines == len(lengths)
        assert longest == max(lengths) or max(lengths) < 1 << 16 and longest <= max(lengths)

    def test_over_budget_exits_2_before_parsing(self, tmp_path, capsys, monkeypatch):
        """Size and line count alone refuse the trace: one stderr line, exit 2, no parse, no output directory."""
        row = ",".join(["1"] * 9)
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{','.join(TRACE_COLUMNS)}\n0,{row}\n1,{row}\n", encoding="utf-8")

        def no_parse(text):
            raise AssertionError("trace parsed")

        monkeypatch.setattr(serialize, "parse_trace_csv", no_parse)
        monkeypatch.setattr(bounds, "MEMORY_BUDGET", 1 << 10)
        assert main(["report", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "rep").exists()
        assert err.count("\n") == 1 and "memory budget" in err and err.startswith("ntxb report: ")

    def test_csv_round_trip_preserves_aggregates(self):
        trace = train(
            TrainConfig(
                n_pairs=3,
                input_dim=3,
                encoder_dims=(4,),
                projector_dims=(4, 3),
                steps=12,
                seed=3,
                dataset=DatasetParams(clusters=2, spread=0.2, points=16),
            )
        )
        columns = {column: getattr(trace, column).tolist() for column in TRACE_COLUMNS}
        parsed = parse_trace_csv(trace_to_csv(trace).splitlines())
        assert parsed == columns  # exact equality: 17 significant digits round-trip
        assert report_aggregates(parsed) == report_aggregates(columns)


class TestSerialization:
    def test_trace_columns_are_the_float_columns_of_a_trace_after_its_step(self):
        assert TRACE_COLUMNS == (
            "step",
            "loss_total",
            "loss_alignment",
            "loss_distribution",
            "avg_pos_sim",
            "paper_bound",
            "strict_bound",
            "paper_gap",
            "strict_gap",
            "grad_norm",
        )

    def test_floats_use_17_significant_digits(self):
        assert dumps({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}\n'

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(50) * 10.0 ** rng.uniform(-10, 10, 50))
        doc = json.loads(dumps({"values": values}))
        assert doc["values"] == values

    def test_trace_rows_are_format_float_joins(self):
        trace = train(dataclasses.replace(QUICK, steps=4))
        want = [",".join(TRACE_COLUMNS)]
        for i in range(len(trace)):
            row = (serialize.format_float(float(getattr(trace, c)[i])) for c in TRACE_COLUMNS[1:])
            want.append(",".join([str(int(trace.step[i])), *row]))
        assert trace_to_csv(trace) == "\n".join(want) + "\n"

    @pytest.mark.parametrize("column", TRACE_COLUMNS[1:])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_trace_writer_refuses_non_finite_values(self, column, bad):
        trace = train(dataclasses.replace(QUICK, steps=3))
        getattr(trace, column)[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            trace_to_csv(trace)

    def test_write_text_replaces_the_file(self, tmp_path):
        target = tmp_path / "doc.txt"
        target.write_text("old contents\n", encoding="utf-8")
        write_text(target, "new\n")
        assert target.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]

    def test_failed_write_is_a_config_error_without_a_temp_file(self, tmp_path):
        (tmp_path / "doc.json").mkdir()
        with pytest.raises(ConfigError, match="doc.json"):
            serialize.write_json(tmp_path / "doc.json", {"x": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    @pytest.mark.parametrize(("seed", "accepted"), [(0, True), (2**64 - 1, True), (-1, False), (2**64, False)])
    def test_one_seed_range_for_every_caller(self, seed, accepted):
        """The --seed flag, the verifier and the train config take the same u64 range, each with its own error."""
        grid = bounds.VerifyGrid(ns=(2,), ms=(2,), taus=(0.5,), distributions=("gaussian",))
        callers = [
            (argparse.ArgumentTypeError, lambda: cli._seed_type(str(seed))),
            (InvalidGridError, lambda: bounds.monte_carlo_verify(grid, 1, seed)),
            (InvalidDatasetParamsError, lambda: TrainConfig(seed=seed)),
        ]
        for error, build in callers:
            if accepted:
                build()
            else:
                with pytest.raises(error, match=f"seed must fit in u64, got {seed}"):
                    build()
        if not accepted:
            assert main(["verify", "--seed", str(seed)]) == 2
