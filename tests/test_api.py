"""The top-level API: what the demos and the README example import, and no more.

Also the package's record types: tuples with named fields, fixed once made.
"""
import argparse
import ast
import math
import pathlib
import re

import pytest

import qwalk
from qwalk.cli import DEFAULT_SEED, RunConfig, _config_from_args, build_parser
from qwalk.leggett_garg import LgiComponents, LgiResult
from qwalk.theory import DOWN, UP, StateVector

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


# --- record types ---------------------------------------------------------------

FIELDS = {
    LgiComponents: ("q3_mean", "q3q2_mean", "p_plus", "p_minus"),
    LgiResult: ("k", "stderr", "protocol", "components", "replicates"),
    StateVector: ("amplitudes",),
    RunConfig: ("mode", "seed", "steps", "phi1", "phi2", "particles", "gamma",
                "replicates", "removal", "taps", "format", "walk", "network"),
}


def test_record_types_keep_their_fields_in_order():
    for record, names in FIELDS.items():
        assert record._fields == names
    assert RunConfig._field_defaults == {
        "steps": 4, "phi1": math.pi / 2, "phi2": -math.pi / 2,
        "particles": 100_000, "gamma": 0.95, "replicates": 1,
        "removal": "none", "taps": False, "format": "csv", "walk": None,
        "network": None}


def test_every_option_default_is_the_configs(monkeypatch):
    # three subcommands set their own: lgi's replicates, and the network
    # that oracle's --walk and compare's --network pick when not given
    own = {("lgi", "replicates"): 10, ("oracle", "walk"): "jeong",
           ("compare", "network"): "jeong"}
    monkeypatch.delenv("QWALK_SEED", raising=False)
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    checked = set()
    for mode, parser in sub.choices.items():
        # a bare `qwalk <mode>`, resolved as main resolves it
        cfg = _config_from_args(build_parser().parse_args([mode]))
        assert (cfg.mode, cfg.seed) == (mode, DEFAULT_SEED)
        for name, default in RunConfig._field_defaults.items():
            assert getattr(cfg, name) == own.get((mode, name), default), (mode, name)
        checked |= {a.dest for a in parser._actions} & set(RunConfig._field_defaults)
    assert checked == set(RunConfig._field_defaults)


def test_state_vector_basis_is_one_amplitude():
    state = StateVector.basis(-1, DOWN, 0.5)
    assert type(state) is StateVector
    assert state.amplitudes == {(-1, DOWN): 0.5 + 0.0j}
    assert type(state.amplitudes[(-1, DOWN)]) is complex
    assert StateVector.basis(2, UP).amplitudes == {(2, UP): 1.0 + 0.0j}
    assert state.site_probabilities() == {-1: 0.25}


def test_record_fields_cannot_be_assigned():
    comps = LgiComponents(0.0, 0.0, 0.5, 0.5)
    records = [comps, LgiResult(1.0, 0.0, "three_run", comps, 1),
               StateVector.basis(0, UP), RunConfig("jeong", 1)]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
