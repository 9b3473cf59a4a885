"""Independent correctness oracles for the benchmark's result files.

Nothing here imports ``swarmcrit``: files are parsed with this module's own
reader and judged against closed-form bounds and a stored reference table,
so a defect in the program's readers or estimators cannot hide itself.
Every check returns the number of failed units (curve points, neutral
points or sweep cells) and raises on a missing or malformed file, which the
caller counts as every unit failed.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_CURVE = HERE / "reference_curve.csv"

# criterion 05's cross-validation tolerance between two curve estimates
REFERENCE_TOLERANCE = 0.1


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV with ``#`` comment lines."""
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if header:
            rows.append(line.split(","))
        else:
            header = line.split(",")
    return header, rows


def read_curve(path) -> dict[float, tuple[float, float, str]]:
    """omega -> (alpha, half_bracket, status) of a curve or neutral CSV."""
    header, rows = read_rows(path)
    if header != ["omega", "alpha_critical", "std_error", "status"]:
        raise ValueError(f"{path}: unexpected curve header {header}")
    return {round(float(r[0]), 10): (float(r[1]), float(r[2]), r[3]) for r in rows}


def alpha_mean_square(omega: float) -> float:
    """Poli's exact mean-square stability boundary for the equal split.

    Almost-sure stability is weaker than mean-square stability, so the
    critical curve lies on or above this bound (Poli, IEEE TEC 2009).
    """
    return 24.0 * (1.0 - omega * omega) / (7.0 - 5.0 * omega)


@functools.cache
def _reference() -> dict[float, tuple[float, float, str]]:
    return read_curve(REFERENCE_CURVE)


def reference_alpha(omega: float) -> float:
    """Reference critical weight at a grid omega (see make_reference.py)."""
    alpha, _, status = _reference()[round(omega, 10)]
    if status != "OK":
        raise ValueError(f"reference has no critical weight at omega={omega}")
    return alpha


def check_curve(path, grid, tolerance: float) -> int:
    """Critical-curve points (Lyapunov or escape method, equal split).

    |omega| <= 0.9 must be OK, |omega| >= 1 must not; an OK point must lie
    on or above the mean-square bound less the solve tolerance and within
    REFERENCE_TOLERANCE of the reference table.
    """
    points = read_curve(path)
    if sorted(points) != sorted(round(w, 10) for w in grid):
        raise ValueError(f"{path}: omega grid differs from the request")
    failed = 0
    for omega, (alpha, _, status) in points.items():
        if abs(omega) >= 1.0:
            failed += status == "OK"
        elif abs(omega) <= 0.9 + 1e-9:
            failed += not (
                status == "OK"
                and math.isfinite(alpha)
                and alpha >= alpha_mean_square(omega) - tolerance
                and abs(alpha - reference_alpha(omega)) <= REFERENCE_TOLERANCE
            )
    return failed


def check_neutral(path) -> int:
    """Every point of a neutral-stability curve must be resolved."""
    return sum(status != "OK" for _, _, status in read_curve(path).values())


def check_nesting(outer_path, inner_path) -> int:
    """Points of a smaller-kappa (inner) neutral curve: each must be OK and
    strictly below the kappa = 1 (outer) boundary at the same omega, the
    nesting of criterion 11."""
    outer = read_curve(outer_path)
    inner = read_curve(inner_path)
    if sorted(outer) != sorted(inner):
        raise ValueError("neutral curves use different omega grids")
    failed = 0
    for omega, (a_in, _, s_in) in inner.items():
        a_out, _, s_out = outer[omega]
        failed += not (s_in == "OK" and s_out == "OK" and a_in < a_out)
    return failed


SWEEP_HEADER = [
    "function", "omega", "alpha", "iterations", "mean_best_cost",
    "median_best_cost", "divergence_fraction", "repetitions",
]


def check_sweep(path, expected_cells: int) -> int:
    """Every cell finite and non-negative with a divergence fraction in
    [0, 1]; missing cells count as failed."""
    header, rows = read_rows(path)
    if header != SWEEP_HEADER:
        raise ValueError(f"{path}: unexpected sweep header {header}")
    failed = max(expected_cells - len(rows), 0)
    for r in rows:
        mean, median, div = float(r[4]), float(r[5]), float(r[6])
        failed += not (
            math.isfinite(mean) and math.isfinite(median)
            and mean >= 0.0 and median >= 0.0 and 0.0 <= div <= 1.0
        )
    return failed


def check_region(path, stats_path) -> int:
    """Best-decile cells must exclude the divergent omega > 1, alpha > 4
    corner; the distance stats must account for every region cell."""
    header, rows = read_rows(path)
    if header != ["omega", "alpha", "normalized_cost"] or not rows:
        raise ValueError(f"{path}: malformed region file")
    stats = json.loads(Path(stats_path).read_text())
    if stats["count"] + stats["skipped"] != len(rows):
        return len(rows)
    return sum(float(r[0]) > 1.0 and float(r[1]) > 4.0 for r in rows)
