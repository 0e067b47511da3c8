"""Every output of ``golden.COMMANDS`` has the digest committed for this environment in ``tests/golden.json``.

The digests see a one-ulp change: a value moved by ``np.nextafter`` in the
verify summary or in a desk trace changes the digest of exactly the outputs
that carry it, rerunning only the commands that write them. Gradcheck prints
its errors to 4 significant digits (``.3e``), so its digests cannot see a
last-bit change in them: a one-ulp move leaves every gradcheck digest as it
is, and only a change that reaches the printed digits, such as 1%, moves one.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
from ntxbound import cli, gradcheck, trainer


def committed_digests():
    table = json.loads(golden.GOLDEN.read_text())
    key = golden.environment_key()
    if key not in table:
        why = "outputs move in their last bits across numpy, BLAS kernel, machine and SIMD dispatch"
        pytest.skip(f"no digests for {key!r}: {why}")
    return table[key]


def test_outputs_match_committed_digests():
    assert golden.differences(committed_digests(), golden.digests()) == []


def test_differences_name_each_added_changed_and_missing_output():
    committed = {"kept": "a", "moved": "b", "gone": "c"}
    now = {"kept": "a", "moved": "x", "new": "d"}
    assert golden.differences(committed, now) == ["missing gone", "changed moved", "added new"]
    assert golden.differences(now, now) == []


@pytest.mark.skipif(golden.simd_level() != "X86_V4", reason="numpy's SIMD dispatch here is not X86_V4")
def test_a_lower_simd_dispatch_is_another_key():
    """Under AVX2 dispatch ``exp`` and ``log`` return other last bits, so the digests are keyed apart and skip there."""
    tests = Path(golden.__file__).parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    code = "import golden; print(golden.environment_key())"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() != golden.environment_key()


def one_ulp(x):
    return np.nextafter(x, np.inf)


def changed_after(monkeypatch, module, name, after, commands):
    """The outputs of ``commands`` whose digests differ from the committed ones, ``module.<name>``'s results passed
    through ``after``."""
    committed = committed_digests()
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: after(real(*args, **kwargs)))
    now = golden.digests({command: argv for command, argv in golden.COMMANDS.items() if command in commands})
    return golden.differences({output: committed[output] for output in now}, now)


def nudged_column(column, row):
    def after(trace):
        getattr(trace, column)[row] = one_ulp(getattr(trace, column)[row])
        return trace

    return after


def nudged_first_trial(move):
    return lambda trials: (dataclasses.replace(t, worst_rel_err=move(t.worst_rel_err)) if t.trial == 0 else t for t in trials)


def test_one_ulp_in_the_verify_summary_moves_the_summary_and_stdout(monkeypatch):
    """``min_strict_gap`` is printed and written in full."""
    after = lambda summary: dataclasses.replace(summary, min_strict_gap=one_ulp(summary.min_strict_gap))
    changed = changed_after(monkeypatch, cli, "monte_carlo_verify", after, {"verify"})
    assert changed == ["changed verify", "changed verify/verify_summary.json"]


@pytest.mark.parametrize(
    "column, row, outputs",
    [
        # a middle row of a column that no summary reads: the trace and its report series
        ("loss_alignment", 1, ["report/series_loss_alignment.csv", "train0/train_trace.csv"]),
        # the final loss is also the summary's final_loss, which stdout prints
        ("loss_total", -1, ["report/series_loss_total.csv", "train0", "train0/train_summary.json", "train0/train_trace.csv"]),
    ],
)
def test_one_ulp_in_a_desk_trace_moves_exactly_the_outputs_that_carry_it(monkeypatch, column, row, outputs):
    changed = changed_after(monkeypatch, trainer, "train", nudged_column(column, row), {"train0", "report"})
    assert changed == [f"changed {output}" for output in outputs]


def test_gradcheck_digests_see_its_printed_digits_only(monkeypatch):
    """One ulp in the first loss-level trial's error prints the same; 1% more does not."""
    with monkeypatch.context() as patch:
        assert changed_after(patch, gradcheck, "iter_loss_level", nudged_first_trial(one_ulp), {"gradcheck0"}) == []
    more = nudged_first_trial(lambda err: err * 1.01)
    assert changed_after(monkeypatch, gradcheck, "iter_loss_level", more, {"gradcheck0"}) == ["changed gradcheck0"]
