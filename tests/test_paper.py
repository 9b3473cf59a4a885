import importlib.util
import re
from pathlib import Path

from swarmcrit.stability import CriticalCurve

FILES = ["curve_equal.csv", "curve_social.csv", "sweep.csv", "heatmap.csv", "region.csv",
         *(f"stationary_alpha{a}.csv" for a in (0.5, 1.5, 2.5, 3.5, 4.5))]
TINY = {"CURVE_STEPS": 50, "CURVE_TRIALS": 2, "STATIONARY_SAMPLES": 800,
        "STATIONARY_BURN_IN": 10, "PUSH_DRAWS": 5, "SWEEP_ITERATIONS": 3,
        "SWEEP_REPETITIONS": 1, "NEUTRAL_REPETITIONS": 50, "GROWTH_STEPS": 20,
        "GROWTH_REPETITIONS": 20, "RUN_ITERATIONS": 5, "RUN_SEEDS": 2}


def test_paper_script_runs_every_section_at_tiny_budgets(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "demos" / "paper.py"
    spec = importlib.util.spec_from_file_location("paper", path)
    paper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper)
    for name, value in TINY.items():
        monkeypatch.setattr(paper, name, value)
    paper.main(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in ("curve_equal.csv", "curve_social.csv"):
        assert len(CriticalCurve.from_csv(tmp_path / name).points) == 21
    timings = re.findall(r"^-- (\w+): \d+\.\d s$", capsys.readouterr().out, re.MULTILINE)
    assert timings == ["curves", "stationary", "valley", "scaling", "optimiser"]
