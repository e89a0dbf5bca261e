"""The README's "Library use" block runs as written and decodes correctly."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    if match is None:
        raise AssertionError("no python block under 'Library use' in README.md")
    return match.group(1)


def test_library_use_block_runs():
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    # The block checks itself with assert, which python -O strips.
    result, witness = namespace["result"], namespace["witness"]
    a, e2 = namespace["a"], namespace["e2"]
    if result.k2_hat != witness.k2:
        raise AssertionError(f"k2_hat {result.k2_hat} != k2 {witness.k2}")
    if result.a_hat - a != e2:
        raise AssertionError(f"a_hat - a = {result.a_hat - a}, expected e2 = {e2}")
