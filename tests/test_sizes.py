"""No output depends on a size knob: ``bounds.CHUNK_BYTES`` and ``trainer.BLOCK_STEPS`` set only how work is split.

``CHUNK_BYTES`` sizes verify's trial stacks and gradcheck's groups and probe
stacks; ``BLOCK_STEPS`` sizes the train run's blocks of diagnostics. Any
size, down to one trial or one step at a time, must write the same bytes as
the stock sizes. The pinned cases (``test_small_chunks_*``,
``TestStackedTrials``, ``TestBlocks``) stay beside this property.
"""

import functools
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import ntxbound.bounds as bounds
import ntxbound.trainer as trainer
from golden import run_commands

VERIFY = {"ns": [2, 5], "ms": [3], "taus": [0.2], "distributions": ["uniform_sphere", "gaussian", "clustered"],
          "trials": 12, "seed": 3}
TRAIN = {"n_pairs": 4, "input_dim": 4, "encoder_dims": [8, 8], "projector_dims": [8, 4], "tau": 0.5,
         "learning_rate": 0.05, "steps": 30, "seed": 1, "augment": {"noise_sigma": 0.1, "dropout_prob": 0.1},
         "dataset": {"clusters": 2, "spread": 0.2, "points": 32}}
CONFIGS = {"verify": VERIFY, "train": TRAIN}
#: A small verify, a 30-step train and ``gradcheck --trials 3``.
COMMANDS = {
    "verify": ["verify", "--config", "{tmp}/verify.json", "--out", "{tmp}/out"],
    "train": ["train", "--config", "{tmp}/train.json", "--out", "{tmp}/out"],
    "gradcheck": ["gradcheck", "--trials", "3"],
}


@functools.cache
def stock_outputs() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        return run_commands(Path(tmp), CONFIGS, COMMANDS)


@settings(max_examples=25, deadline=None)
@given(chunk_log2=st.floats(0.0, 24.0), block_steps=st.integers(1, 128))
def test_outputs_do_not_depend_on_sizes(chunk_log2, block_steps):
    """CHUNK_BYTES log-uniform from 1 byte to 16 MiB, BLOCK_STEPS from 1 to 128: every output byte-identical."""
    want = stock_outputs()  # made at the stock sizes, before the patch
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(bounds, "CHUNK_BYTES", int(2.0**chunk_log2))
        mp.setattr(trainer, "BLOCK_STEPS", block_steps)
        assert run_commands(Path(tmp), CONFIGS, COMMANDS) == want
