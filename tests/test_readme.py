"""The README's library examples run as written, and the names it cites exist."""

import importlib
import inspect
import pathlib
import re

import privmarket

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # later blocks reuse names an earlier block imported, so they share one
    # namespace, as they would in one interactive session
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_names_resolve():
    # a backticked `Class.attr` whose head is a class the package exports, and
    # a backticked `privmarket.module` or `privmarket.module.name`, must name
    # something that exists, so a deleted name cannot stay in the README
    # (config keys such as `market.T` have no exported class as their head)
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    checked = 0
    for span in re.findall(r"`([^`\n]+)`", prose):
        cited = re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", span)
        head = getattr(privmarket, cited[1], None) if cited else None
        if inspect.isclass(head):
            # a record's fields are a NamedTuple's _fields
            assert hasattr(head, cited[2]) or cited[2] in getattr(head, "_fields", ()), span
            checked += 1
        cited = re.fullmatch(r"privmarket\.(\w+)(?:\.(\w+))?", span)
        if cited:
            module = importlib.import_module(f"privmarket.{cited[1]}")
            assert cited[2] is None or hasattr(module, cited[2]), span
            checked += 1
    assert checked >= 8
