"""``cli.main`` never ends in a traceback: every input exits 0, 1, 2 or 3, and exit 2 is one line that writes nothing.

Config documents are drawn from the config dataclasses' fields, walked as
``cli._load`` walks them, so a new field is fuzzed without an edit here.
Values are mostly of the field's type, with ints log-uniform up to 2**70 in
either sign or beyond float64's range and Python's 4300-digit conversion
limit, and floats that include nan, infinities, subnormals and +-1e308; a
document can then have a value of a wrong JSON type, a missing, an extra or
a duplicated key. Gradcheck takes drawn argv, and report drawn
trace CSVs: non-finite values, unsorted steps, truncated text and bytes that
are not UTF-8.

The heavy entry points are stubbed and record their arguments: verify and
train return a small drawn outcome, and each gradcheck level runs its real
argument checks, then yields drawn records for at most two trials, with no
gradient work. ``MEMORY_BUDGET`` is lowered to 16 MiB, so whatever an
accepted input draws is small.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import tempfile
import typing
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import ntxbound.bounds as bounds
import ntxbound.cli as cli
import ntxbound.gradcheck as gc
import ntxbound.trainer as trainer
from ntxbound.bounds import DISTRIBUTIONS, VerifyGrid, VerifySummary
from ntxbound.errors import NonFiniteLossError
from ntxbound.serialize import TRACE_COLUMNS
from ntxbound.trainer import TrainConfig, TrainTrace


class RawNumber(str):
    """A number written as these digits: one too long for Python's int-to-str limit, which json.dumps keeps to."""


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.0, -0.0]
#: Integers beyond float64's range, and beyond the 4300 digits Python converts from text.
HUGE = st.sampled_from([10**400, -(10**400), RawNumber("9" * 5000)])

#: Values a command accepts (for the fields that have no default), and values that probe its checks: ints
#: log-uniform up to 2**70 in either sign or huge, floats with the specials, any text.
CALM = {int: st.integers(1, 8), float: st.floats(0.05, 0.9), str: st.sampled_from(DISTRIBUTIONS)}
WILD = {
    int: st.integers(0, 70).flatmap(lambda e: st.integers(-(2**e), 2**e)) | HUGE,
    float: st.sampled_from(SPECIAL_FLOATS) | st.floats() | HUGE,
    str: st.text(max_size=6),
}
#: How often a value is wild, in percent; drawn once per input.
WILDNESS = st.sampled_from([0, 10, 30, 100])
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


class Members(list):
    """A JSON object as its (key, value) members in order, so a key can be given twice."""


def render(value) -> str:
    if isinstance(value, RawNumber):
        return value
    if isinstance(value, Members):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(render, value)) + "]"
    return json.dumps(value)  # nan and the infinities as NaN, Infinity and -Infinity, which json.loads takes


@st.composite
def json_object(draw, fields: dict, wild: int) -> Members:
    """An object of one value per field, with one or two mutations in ``wild`` percent of draws: a wrong type, or
    a missing, extra or repeated key."""
    members = Members((name, draw(strategy)) for name, strategy in fields.items())
    mutations = draw(st.integers(1, 2)) if draw(st.integers(0, 99)) < wild else 0
    for _ in range(mutations):
        kind = draw(st.sampled_from(["wrong type", "missing", "extra", "repeated"]))
        if kind == "extra" or not members:
            members.append((draw(st.text(max_size=6)), draw(ANY_JSON)))
            continue
        i = draw(st.integers(0, len(members) - 1))
        if kind == "wrong type":
            members[i] = (members[i][0], draw(ANY_JSON))
        elif kind == "missing":
            del members[i]
        else:
            key = members[i][0]
            members.append((key, draw(fields.get(key, ANY_JSON))))
    return members


@st.composite
def field_value(draw, hint, wild: int, default=dataclasses.MISSING):
    """A value for a field of type ``hint``, each scalar wild in ``wild`` percent of draws, else the field's default
    or a calm value. A dataclass is an object of its fields, ``tuple[T, ...]`` an array of T."""
    if dataclasses.is_dataclass(hint):
        return draw(json_object(field_values(hint, wild), wild))
    if typing.get_origin(hint) is tuple:
        if default is dataclasses.MISSING or draw(st.integers(0, 99)) < wild:
            return draw(st.lists(field_value(typing.get_args(hint)[0], wild), min_size=wild < 100, max_size=3))
        return list(default)
    if draw(st.integers(0, 99)) < wild:
        return draw(WILD[hint])
    return draw(CALM[hint]) if default is dataclasses.MISSING else default


def field_values(hint, wild: int) -> dict:
    """A strategy per field of the dataclass ``hint``, walked as ``cli._load`` walks them."""
    hints = typing.get_type_hints(hint)
    return {f.name: field_value(hints[f.name], wild, f.default) for f in dataclasses.fields(hint)}


@st.composite
def config_bytes(draw, hint, **extra) -> bytes:
    """A config file: an object of the fields of ``hint`` and ``extra`` (name: type), or now and then any JSON
    value or any bytes."""
    wild = draw(WILDNESS)
    fields = field_values(hint, wild)
    fields.update((name, field_value(kind, wild)) for name, kind in extra.items())
    kind = draw(st.sampled_from(["object"] * 8 + ["any JSON", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=16))
    return render(draw(json_object(fields, wild) if kind == "object" else ANY_JSON)).encode()


@st.composite
def trace_csv(draw) -> bytes:
    wild = draw(WILDNESS)
    steps = draw(st.lists(field_value(int, wild), max_size=4))
    if draw(st.integers(0, 3)):
        steps = sorted(set(steps), key=lambda step: float(str(step)))  # the huge ones as infinities
    lines = [",".join(TRACE_COLUMNS)]
    for step in steps:
        values = draw(st.lists(field_value(float, wild), min_size=9, max_size=9))
        lines.append(",".join(map(str, [step, *values])))
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 3)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80abc"])) + data[at:]
    return data


@st.composite
def argument(draw, kind) -> str:
    """An option's value: of its type, calm or wild, or now and then any text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=4))
    return str(draw(field_value(kind, draw(WILDNESS))))


GRADCHECK_OPTIONS = {"--trials": int, "--seed": int, "--n-pairs": int, "--dim": int, "--tau": float}


@st.composite
def invocation(draw) -> tuple[list, bytes | None]:
    """An argv with ``{input}`` and ``{out}`` for the input file and the output directory, and the input's bytes."""
    command = draw(st.sampled_from(["verify", "train", "gradcheck", "report"]))
    if command == "gradcheck":
        options = draw(st.lists(st.sampled_from(sorted(GRADCHECK_OPTIONS)), max_size=4))
        return ["gradcheck", *itertools.chain(*((o, draw(argument(GRADCHECK_OPTIONS[o]))) for o in options))], None
    if command == "report":
        return ["report", "--trace", "{input}", "--out", "{out}"], draw(trace_csv())
    argv = [command, "--config", "{input}", "--out", "{out}"]
    if command == "train":
        return argv, draw(config_bytes(TrainConfig))
    if draw(st.booleans()):
        argv += ["--seed", draw(argument(int))]
    if draw(st.integers(0, 4)) == 0:
        return ["verify", *argv[3:]], None  # the stock grid
    return argv, draw(config_bytes(VerifyGrid, trials=int, seed=int))


OUTCOMES = st.fixed_dictionaries(
    {
        "violations": st.integers(0, 2),
        "value": st.floats(-1.0, 1.0),
        "steps": st.integers(0, 3),
        "diverged": st.booleans(),
        "error": st.sampled_from([0.0, 1e-3, math.inf, math.nan]),
    }
)


def stubs(outcome: dict, calls: list) -> dict:
    """Stand-ins for the heavy entry points, by module and name; each records its arguments in ``calls``."""
    real_loss_level, real_end_to_end = gc.iter_loss_level, gc.iter_end_to_end
    value = outcome["value"]

    def monte_carlo_verify(grid, trials, seed):
        calls.append(("verify", grid, trials, seed))
        cells = len(grid.cells())
        v = outcome["violations"]
        return VerifySummary(grid, seed, trials, cells, trials * cells, v, v, value, value, abs(value))

    def train(cfg):
        calls.append(("train", cfg))
        steps = outcome["steps"]
        trace = TrainTrace._empty(steps)
        for column in TRACE_COLUMNS[1:]:
            getattr(trace, column)[:] = value
        if outcome["diverged"] or not steps:
            raise NonFiniteLossError(steps, "stubbed divergence", trace)
        return trace

    def records(first, size):
        return [gc.GradCheckTrial(first + i, outcome["error"], (0, 0), 0.0) for i in range(size)]

    def iter_loss_level(trials, **kwargs):
        calls.append(("loss level", trials, kwargs))
        return itertools.islice(real_loss_level(trials, **kwargs), 2)

    def iter_end_to_end(trials, seed=0):
        calls.append(("end to end", trials, seed))
        return itertools.islice(real_end_to_end(trials, seed), 2)

    return {
        (cli, "monte_carlo_verify"): monte_carlo_verify,
        (trainer, "train"): train,
        (gc, "iter_loss_level"): iter_loss_level,
        (gc, "iter_end_to_end"): iter_end_to_end,
        # What the real levels run once their arguments pass: drawn records, no gradient work.
        (gc, "_loss_level_group"): lambda rows, cfg, first, chunk: records(first, len(rows)),
        (gc, "_end_to_end_group"): lambda seed, first, size, chunk: records(first, size),
        (bounds, "MEMORY_BUDGET"): 16 << 20,
    }


@settings(max_examples=300, deadline=None)
@given(call=invocation(), outcome=OUTCOMES)
def test_main_never_raises(call, outcome):
    template, data = call
    calls = []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for (module, name), stub in stubs(outcome, calls).items():
            mp.setattr(module, name, stub)
        source, out = Path(tmp) / "input", Path(tmp) / "out"
        if data is not None:
            source.write_bytes(data)
        argv = [arg.format(input=source, out=out) if arg in ("{input}", "{out}") else arg for arg in template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        ran = {"verify": ["verify"], "train": ["train"], "gradcheck": ["loss level", "end to end"]}.get(argv[0], [])
        if code != 2:  # a command that ran called its entry points once each
            assert [c[0] for c in calls] == ran
        else:
            # argparse's own refusals come after its usage lines
            lines = [line for line in stderr.getvalue().splitlines() if not line.startswith(("usage: ", " "))]
            assert len(lines) == 1 and lines[0].startswith(f"ntxb {argv[0]}: "), stderr.getvalue()
            assert stdout.getvalue() == "" and not out.exists()
