"""The README's Python examples run as written, and the library names kept
for README readers are named there."""

import re
from pathlib import Path

from test_stdlib_only import UNREACHED_BY_DESIGN

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 2
    for n, block in enumerate(blocks):  # each on its own, as a reader pastes it
        exec(compile(block, f"README.md python block {n}", "exec"), {})


def test_library_api_kept_for_the_readme_is_named_there():
    kept = [name for name, why in UNREACHED_BY_DESIGN.items() if "README" in why]
    assert len(kept) == 3
    assert [name for name in kept if not re.search(rf"\b{name.rpartition('.')[2]}\b", README)] == []
