"""The exported names of `cdsp` and `cdsp.formulation`, and the CLI's solver flags."""

import json
from pathlib import Path

import pytest

import cdsp
import cdsp.formulation
import cdsp.network
from cdsp.cli import main

TINY2 = Path(__file__).parent / "data" / "tiny2.txt"

# names that only tests used, now in tests/views.py or deleted
REMOVED_FORMULATION = (
    "BINARY",
    "CONTINUOUS",
    "Variable",
    "big_m_completion",
    "big_m_shift",
    "big_m_visit",
    "default_adapter",
    "make_adapter",
    "register_adapter",
    "solution_column_values",
)
REMOVED_MODEL_ATTRIBUTES = (
    "count_binary",
    "count_continuous",
    "objective",
    "rows_by_family",
    "variables",
)
REMOVED_GRAPH_ATTRIBUTES = ("arcs_of_kind", "movement_arcs")


@pytest.mark.parametrize("module", [cdsp, cdsp.formulation], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


@pytest.mark.parametrize("name", REMOVED_FORMULATION)
def test_removed_names_are_not_exported(name):
    for module in (cdsp, cdsp.formulation):
        assert name not in module.__all__
        assert not hasattr(module, name)


def test_removed_model_and_graph_views():
    for name in REMOVED_MODEL_ATTRIBUTES:
        assert not hasattr(cdsp.MipModel, name), name
    for name in REMOVED_GRAPH_ATTRIBUTES:
        assert not hasattr(cdsp.network.Multigraph, name), name


def test_solve_without_solver_flag_uses_bundled_backend(tmp_path, capsys):
    code = main(["solve", str(TINY2), "--fleet", "file", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tiny2: optimal" in out
    payload = json.loads((tmp_path / "tiny2.solution.json").read_text())
    assert payload["config"]["solver"] == "scipy-highs"


def test_solver_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(TINY2), "--fleet", "file", "--solver", "scipy"])
    assert exc.value.code == 2
    assert "error: ambiguous option: --solver" in capsys.readouterr().err
