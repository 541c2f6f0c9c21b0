"""The verdicts of ``scripts/bench_pairs.py`` on synthetic summaries."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _summary(q1, median, q3, low=None, high=None):
    return {"median": median, "q1": q1, "q3": q3,
            "min": q1 if low is None else low, "max": q3 if high is None else high, "runs": 10}


PARENT = _summary(9.8, 10.0, 10.2, 9.5, 10.6)  # a quartile distance of 4% of the median


class TestVerdict:
    @pytest.mark.parametrize(
        "after, better_pairs, want",
        [
            (_summary(12.4, 12.6, 12.8), 0, "worse"),  # +26%, past the 25% bound
            (_summary(12.3, 12.5, 12.7), 0, "same"),  # +25%, at the bound
            (_summary(9.9, 10.1, 10.3), 4, "same"),
            (_summary(9.2, 9.5, 9.6), 9, "gain"),  # 9 of 10 pairs and 0.5 > the 0.4 spread
            (_summary(9.2, 9.5, 9.6), 8, "same"),  # 8 of 10 pairs
            (_summary(9.5, 9.7, 9.8), 10, "same"),  # 0.3 within the parent's 0.4 spread
        ],
    )
    def test_lower_is_better(self, after, better_pairs, want):
        assert bench_pairs.verdict(PARENT, after, better_pairs, "lower", 0.25) == want

    @pytest.mark.parametrize(
        "after, better_pairs, want",
        [
            (_summary(7.0, 7.4, 7.6), 0, "worse"),  # -26%
            (_summary(10.3, 10.5, 10.7), 10, "gain"),
            (_summary(9.6, 9.8, 10.0), 2, "same"),
        ],
    )
    def test_higher_is_better(self, after, better_pairs, want):
        assert bench_pairs.verdict(PARENT, after, better_pairs, "higher", 0.25) == want

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        # a 5% bound under the parent's 4% quartile distance, then over it
        after = _summary(9.9, 10.1, 10.3)
        assert bench_pairs.verdict(PARENT, after, 3, "lower", 0.05) == "same"
        assert bench_pairs.verdict(PARENT, after, 3, "lower", 0.03) == "unresolved"
        # past the bound it is worse, however wide the spread
        assert bench_pairs.verdict(PARENT, _summary(10.5, 10.7, 10.9), 0, "lower", 0.03) == "worse"

    def test_every_run_better_resolves_a_wide_spread(self):
        after = _summary(8.9, 9.0, 9.1, 8.8, 9.4)  # every run below the parent's 9.5
        assert bench_pairs.verdict(PARENT, after, 10, "lower", 0.03) == "gain"
        assert bench_pairs.verdict(PARENT, after, 10, "higher", 0.03) == "worse"

    def test_a_missing_summary_is_unresolved(self):
        assert bench_pairs.verdict(None, PARENT, 0, "lower", 0.25) == "unresolved"
        assert bench_pairs.verdict(PARENT, None, 0, "lower", 0.25) == "unresolved"

    def test_verdicts_from_run_records(self):
        # the summaries and pair counts main() hands to verdict, from ten pairs of runs
        before = [{"metrics": {"op_cal_p50": 10.0 + 0.1 * i}} for i in range(10)]
        after = [{"metrics": {"op_cal_p50": 9.0 + 0.1 * i}} for i in range(10)]
        summaries = [bench_pairs.summary(runs)["op_cal_p50"] for runs in (before, after)]
        assert summaries[1]["min"] == 9.0 and summaries[0]["max"] == pytest.approx(10.9)
        better_pairs = bench_pairs.wins(before, after)["op_cal_p50"]
        assert better_pairs == 10
        assert bench_pairs.verdict(*summaries, better_pairs, "lower", 0.25) == "gain"
        assert bench_pairs.verdict(*summaries[::-1], 0, "lower", 0.25) == "same"
