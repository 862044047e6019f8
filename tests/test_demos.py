"""The demo scripts run to completion against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_three_demos():
    assert [p.name for p in DEMOS] == [
        "configuration_tour.py", "lattice_tour.py", "period_map_tour.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.startswith("\n== ")
