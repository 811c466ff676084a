"""The top-level API: what the demos and the README example import, and no more."""
import ast
import pathlib
import re

import qwalk

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: also kept at the top level: the per-hop routing functions and seed
#: derivation that the benchmark times, the error base class, the version
KEPT = {"adaptive_update", "bs_route", "pbs_route", "derive_seed",
        "QwalkError", "__version__"}


def readme_example() -> str:
    text = (ROOT / "README.md").read_text()
    [block] = re.findall(r"## Library example\n.*?```python\n(.*?)```", text, re.S)
    return block


def imported_from_qwalk(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "qwalk"
            for alias in node.names}


def test_all_is_what_the_demos_and_readme_import():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    used = imported_from_qwalk(readme_example())
    for demo in demos:
        used |= imported_from_qwalk(demo.read_text())
    assert sorted(qwalk.__all__) == sorted(used | KEPT)
    for name in qwalk.__all__:
        assert getattr(qwalk, name) is not None


def test_readme_example_runs(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
