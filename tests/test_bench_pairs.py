"""Verdicts of scripts/bench_pairs.py on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUNDS = {"t_s": ("lower", 0.25), "rate": ("higher", 0.25)}


def _side(value, name="t_s", correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}}}


def _pairs(base, change, name="t_s", **change_side):
    return [{"base": _side(b, name), "change": _side(c, name, **change_side)}
            for b, c in zip(base, change)]


def _verdict(base, change, name="t_s", **change_side):
    rows = bench_pairs.summarize(_pairs(base, change, name, **change_side), BOUNDS)
    return rows[name]


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_a_clear_win_over_ten_pairs_is_a_gain():
    row = _verdict(BASE, [b * 0.8 for b in BASE])
    assert row["verdict"] == "gain" and row["change_wins"] == 10


def test_noise_inside_the_bound_is_within_bound():
    row = _verdict(BASE, [b * 1.01 for b in BASE[1:] + BASE[:1]])
    assert row["verdict"] == "within_bound"


def test_a_median_past_the_bound_is_worse():
    row = _verdict(BASE, [b * 1.4 for b in BASE])
    assert row["verdict"] == "worse"


def test_a_small_loss_under_a_wide_base_spread_is_unresolved():
    # the base's quartiles spread about 30% of its median, wider than the
    # 0.25 bound: a 6% worse median cannot be told from noise
    wide = [80.0, 130.0, 95.0, 120.0, 85.0, 125.0, 100.0, 110.0, 90.0, 105.0]
    row = _verdict(wide, [b * 1.06 for b in wide])
    assert row["base_iqr"] > 0.25 * row["base"]["median"]
    assert row["verdict"] == "unresolved"
    # the same move on a tight base is within the bound
    assert _verdict(BASE, [b * 1.06 for b in BASE])["verdict"] == "within_bound"


def test_a_change_that_beats_every_base_run_is_never_unresolved():
    wide = [80.0, 130.0, 95.0, 120.0, 85.0, 125.0, 100.0, 110.0, 90.0, 105.0]
    # its gap to the base median is inside the base IQR, so it is no gain
    assert _verdict(wide, [79.0] * 10)["verdict"] == "within_bound"


def test_higher_is_better_metrics_are_judged_by_their_sign():
    assert _verdict(BASE, [b * 1.3 for b in BASE], "rate")["verdict"] == "gain"
    assert _verdict(BASE, [b * 0.6 for b in BASE], "rate")["verdict"] == "worse"


def test_gains_need_ten_clean_pairs():
    assert _verdict(BASE[:9], [b * 0.8 for b in BASE[:9]])["verdict"] == "within_bound"
    assert _verdict(BASE, [b * 0.8 for b in BASE],
                    correct=False)["verdict"] == "within_bound"
    assert _verdict(BASE, [b * 0.8 for b in BASE],
                    failed=1)["verdict"] == "within_bound"


def test_one_pair_is_unresolved():
    assert _verdict(BASE[:1], BASE[:1])["verdict"] == "unresolved"


@pytest.mark.parametrize("verdict", ["gain", "worse"])
def test_rows_not_within_bound_are_flagged(verdict):
    factor = 0.8 if verdict == "gain" else 1.4
    metrics = bench_pairs.summarize(_pairs(BASE, [b * factor for b in BASE]), BOUNDS)
    report = {"workloads": {"w": {"metrics": metrics}}}
    lines = bench_pairs.flagged(report)
    assert lines == [f"w t_s: {verdict}, change/base {factor:.3f}, "
                     f"{10 if verdict == 'gain' else 0}/10 pairs won"]
    metrics["t_s"]["verdict"] = "within_bound"
    assert bench_pairs.flagged(report) == []
