"""README's "Library use" block runs as written: the public names it shows are covered by a test."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md: Library use", "exec"), namespace)
    assert namespace["grad"].shape == (8, 16)  # as the block says
    assert {"lse_bounds", "AnchorMode"} <= namespace.keys()  # the sandwich lemma and the symmetric anchor mode run too
    assert len(namespace["step"]) == 1 and "train_step" in namespace  # so does one training step
