"""The gain rule and the no-regression verdict of tools/ab_pairs.py on fixed
run lists, with no benchmark run: nine tenths of all pairs run must be won,
by a median gap wider than the parent's interquartile range, with no more
failed operations; a median worse by more than the bound regresses, and a
parent spread wider than the bound leaves the metric unresolved. The
bootstrap interval of the per-pair ratios is pinned on fixed lists too."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 0.98, 1.00, 1.02, 0.99]
FASTER = [0.70, 0.71, 0.72, 0.69, 0.70, 0.71, 0.68, 0.70, 0.72, 0.69]
NO_FAILS = {"parent": 0, "change": 0}
BOUND = 0.24


def test_ten_wins_of_ten_pairs_is_a_gain(ab):
    s = ab.compare(PARENT, FASTER, "lower", BOUND, 10, NO_FAILS)
    assert (s["change_wins"], s["change_losses"], s["pairs"], s["pairs_compared"]) == (10, 0, 10, 10)
    assert s["gain_rule_met"]


def test_a_failed_pair_counts_as_not_won(ab):
    # 8 pairs compared, all won, but 2 of the 10 pairs run failed: 8 < 9
    s = ab.compare(PARENT[:8], FASTER[:8], "lower", BOUND, 10, NO_FAILS)
    assert (s["change_wins"], s["pairs"], s["pairs_compared"]) == (8, 10, 8)
    assert not s["gain_rule_met"]
    # 9 compared and won out of 10 run is enough
    assert ab.compare(PARENT[:9], FASTER[:9], "lower", BOUND, 10, NO_FAILS)["gain_rule_met"]


def test_more_failed_operations_than_the_parent_is_no_gain(ab):
    assert not ab.compare(PARENT, FASTER, "lower", BOUND, 10, {"parent": 0, "change": 1})["gain_rule_met"]
    assert ab.compare(PARENT, FASTER, "lower", BOUND, 10, {"parent": 2, "change": 2})["gain_rule_met"]


def test_the_median_gap_must_exceed_the_parent_spread(ab):
    # every pair won by 0.001, but the parent's quartiles lie 0.02 apart
    barely = [p - 0.001 for p in PARENT]
    s = ab.compare(PARENT, barely, "lower", BOUND, 10, NO_FAILS)
    assert s["change_wins"] == 10 and s["parent_iqr"] > 0.001
    assert not s["gain_rule_met"]


def test_higher_is_better_and_ties_count_for_neither_side(ab):
    s = ab.compare([1.0, 2.0, 3.0], [1.0, 2.5, 2.0], "higher", BOUND, 3, NO_FAILS)
    assert (s["change_wins"], s["change_losses"]) == (1, 1)
    assert not s["gain_rule_met"]


@pytest.mark.parametrize(
    "wins,pairs,gap,iqr,fails,met",
    [
        (9, 10, 0.2, 0.1, NO_FAILS, True),
        (8, 10, 0.2, 0.1, NO_FAILS, False),
        (9, 10, 0.1, 0.1, NO_FAILS, False),
        (10, 10, 0.2, 0.1, {"parent": 0, "change": 3}, False),
        (19, 20, 0.2, 0.1, NO_FAILS, True),
        (17, 20, 0.2, 0.1, NO_FAILS, False),
    ],
)
def test_gain_rule(ab, wins, pairs, gap, iqr, fails, met):
    assert ab.gain_rule(wins, pairs, gap, iqr, fails) is met


SLOWER = [1.30, 1.31, 1.32, 1.29, 1.30, 1.31, 1.28, 1.30, 1.32, 1.29]
# quartiles 0.775 and 1.225 around a median of 1.0: a spread of 0.45 of the median
NOISY = [0.6, 0.7, 0.7, 1.0, 1.0, 1.0, 1.0, 1.3, 1.3, 1.4]


@pytest.mark.parametrize(
    "parent, change, better, worse_by, verdict",
    [
        (PARENT, FASTER, "lower", -0.3, "within bound"),
        (PARENT, [p * 1.2 for p in PARENT], "lower", 0.2, "within bound"),
        (PARENT, SLOWER, "lower", 0.3, "regressed"),
        (PARENT, FASTER, "higher", 0.3, "regressed"),
        (SLOWER, PARENT, "higher", 1 - 1.0 / 1.3, "within bound"),
        (NOISY, PARENT, "lower", 0.0, "unresolved"),
        (NOISY, SLOWER, "lower", 0.3, "unresolved"),
        # every change run beats every parent run: resolved despite the spread
        (NOISY, [0.5] * 10, "lower", -0.5, "within bound"),
        (NOISY, [1.5] * 10, "higher", -0.5, "within bound"),
    ],
)
def test_no_regression_verdict(ab, parent, change, better, worse_by, verdict):
    s = ab.compare(parent, change, better, BOUND, 10, NO_FAILS)
    assert s["worse_by"] == pytest.approx(worse_by, abs=1e-9)
    assert s["bound"] == BOUND
    assert s["verdict"] == verdict


@pytest.mark.parametrize(
    "worse_by, spread, all_better, verdict",
    [
        (0.1, 0.1, False, "within bound"),
        (0.24, 0.24, False, "within bound"),
        (0.25, 0.1, False, "regressed"),
        (0.0, 0.25, False, "unresolved"),
        (-0.5, 0.25, True, "within bound"),
    ],
)
def test_verdict(ab, worse_by, spread, all_better, verdict):
    assert ab.verdict(worse_by, spread, all_better, BOUND) == verdict


# per-pair ratios 0.95 to 1.2, median 1.03
RATIOS = [1.05, 0.97, 1.10, 1.02, 0.99, 1.20, 1.01, 1.04, 0.95, 1.08]


def test_ratio_interval_is_a_seeded_bootstrap_of_the_pair_ratios(ab):
    assert ab.ratio_interval([1.0] * 10, RATIOS) == pytest.approx([0.99, 1.08])
    # pairs, not sides: doubling both runs of a pair leaves its ratio alone
    assert ab.ratio_interval([2.0] * 5 + [1.0] * 5, [2 * r for r in RATIOS[:5]] + RATIOS[5:]) == pytest.approx(
        [0.99, 1.08]
    )
    assert ab.ratio_interval(PARENT, NOISY) == pytest.approx([0.693069306930693, 1.2745098039215685])

    s = ab.compare(PARENT, SLOWER, "lower", BOUND, 10, NO_FAILS)
    assert s["ratio_interval_90"] == ab.ratio_interval(PARENT, SLOWER)
