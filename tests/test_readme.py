"""The README's library quickstart runs as written and prints what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: `expression  # value ...`, where the comment opens with a Python literal.
CLAIM = re.compile(r"^(?P<expr>[^=#]+?)\s+# (?P<value>\[.*?\]|\(.*?\)|-?\d+)")


def quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quickstart'"
    return match.group(1)


def test_library_quickstart_runs():
    block = quickstart_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    claims = [m for line in block.splitlines() if (m := CLAIM.match(line))]
    assert len(claims) >= 10
    for m in claims:
        want = ast.literal_eval(m["value"])
        assert eval(m["expr"], namespace) == want, m.group(0)
