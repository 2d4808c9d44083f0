"""Label discretization and threshold calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab.discretize import (
    Thresholds,
    calibrate_binary,
    discretize,
    split_prominent,
)

from conftest import DATASET_CONTINUOUS, DATASET_DISCRETE

DEFAULT = Thresholds(0.5, 1.0)

value_list = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=30,
)


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_discretize_reference_sentence():
    assert discretize(DATASET_CONTINUOUS, DEFAULT) == DATASET_DISCRETE


def test_discretize_all_zero():
    assert discretize([0.0, 0.0, 0.0], DEFAULT) == [0, 0, 0]


def test_discretize_boundaries_inclusive_upward():
    assert discretize([0.5], DEFAULT) == [1]
    assert discretize([1.0], DEFAULT) == [2]
    assert discretize([0.5], Thresholds(0.5), n_classes=2) == [1]
    assert discretize([0.49999], DEFAULT) == [0]


def test_discretize_two_way():
    got = discretize([0.1, 0.5, 2.0, None], Thresholds(0.5), n_classes=2)
    assert got == [0, 1, 1, None]


def test_discretize_requires_theta2_for_three_way():
    with pytest.raises(ValueError, match="requires theta2"):
        discretize([0.1], Thresholds(0.5), n_classes=3)


def test_discretize_rejects_other_class_counts():
    with pytest.raises(ValueError, match="must be 2 or 3"):
        discretize([0.1], DEFAULT, n_classes=4)


def test_thresholds_validation():
    with pytest.raises(ValueError, match="non-negative"):
        Thresholds(-0.1)
    with pytest.raises(ValueError, match="exceed theta1"):
        Thresholds(0.5, 0.5)
    assert Thresholds(0.5).theta2 is None


@settings(max_examples=80, deadline=None)
@given(value_list)
def test_discretize_monotone(values):
    ordered = sorted(values)
    labels = discretize(ordered, DEFAULT)
    assert all(a <= b for a, b in zip(labels, labels[1:]))


@settings(max_examples=80, deadline=None)
@given(value_list)
def test_discretize_merge_equivalence(values):
    three = discretize(values, DEFAULT, n_classes=3)
    two = discretize(values, Thresholds(DEFAULT.theta1), n_classes=2)
    assert [min(v, 1) for v in three] == two


# ---------------------------------------------------------------------------
# calibrate_binary
# ---------------------------------------------------------------------------

def test_calibrate_separable():
    t = calibrate_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert t.theta1 == pytest.approx(0.5)
    assert t.theta2 is None
    got = discretize([0.1, 0.2, 0.8, 0.9], t, n_classes=2)
    assert got == [0, 0, 1, 1]


def test_calibrate_noisy_reference():
    # best midpoint is 0.25: predicts [0,1,1,1], 3 of 4 agree; every other
    # midpoint also reaches at most 3 but 0.25 comes first (smaller theta)
    t = calibrate_binary([0.1, 0.4, 0.5, 0.9], [0, 1, 0, 1])
    assert t.theta1 == pytest.approx(0.25)


def test_calibrate_degenerate_reference():
    with pytest.raises(ValueError, match="degenerate reference"):
        calibrate_binary([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError, match="degenerate reference"):
        calibrate_binary([0.1, 0.9], [0, 0])


def test_calibrate_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        calibrate_binary([0.1], [0, 1])


def test_calibrate_constant_values():
    t = calibrate_binary([0.7, 0.7, 0.7], [0, 1, 1])
    assert t.theta1 == pytest.approx(0.7)


def test_calibrate_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        calibrate_binary([0.1, float("nan")], [0, 1])


def _calibrate_oracle(values, reference):
    """One full agreement pass per candidate threshold, first maximum wins."""
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference)
    distinct = np.unique(values)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.concatenate(
        [[distinct[0]], midpoints, [distinct[-1] + 1.0]]
    )
    best_theta = None
    best_agree = -1
    for theta in candidates:
        agree = int(np.sum((values >= theta).astype(np.int64) == reference))
        if agree > best_agree:
            best_agree = agree
            best_theta = theta
    return float(best_theta)


# duplicates, neighbouring doubles and midpoints that overflow to infinity
calibration_value = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0.0, 0.5, float(np.nextafter(0.5, 1.0)), 1.0,
                     1.5e308, np.finfo(float).max]),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_calibrate_matches_full_pass_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    values = data.draw(st.lists(calibration_value, min_size=n, max_size=n))
    reference = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    reference[0], reference[-1] = 0, 1
    with np.errstate(over="ignore"):
        got = calibrate_binary(values, reference).theta1
        want = _calibrate_oracle(values, reference)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_calibrate_beats_dense_sweep(data):
    n = data.draw(st.integers(min_value=2, max_value=25))
    values = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n)))
    reference = np.array(data.draw(st.lists(st.integers(0, 1),
                                            min_size=n, max_size=n)))
    if len(set(reference.tolist())) < 2:
        reference[0], reference[-1] = 0, 1
    theta = calibrate_binary(values, reference).theta1
    won = int(np.sum((values >= theta).astype(int) == reference))
    for probe in np.linspace(values.min() - 0.5, values.max() + 0.5, 101):
        agree = int(np.sum((values >= probe).astype(int) == reference))
        assert agree <= won


# ---------------------------------------------------------------------------
# split_prominent
# ---------------------------------------------------------------------------

def test_split_median_even_count():
    values = [0.2, 0.6, 0.7, 0.8, 0.9, 0.1]
    assert split_prominent(values, 0.5) == pytest.approx(0.75)


def test_split_median_odd_count():
    assert split_prominent([0.6, 0.9, 1.4], 0.5) == pytest.approx(0.9)


def test_split_degenerate_warns():
    with pytest.warns(UserWarning, match="degenerate split"):
        theta2 = split_prominent([0.6, 0.6, 0.6], 0.5)
    assert theta2 == pytest.approx(0.6)


def test_split_requires_two_prominent():
    with pytest.raises(ValueError, match="fewer than 2"):
        split_prominent([0.1, 0.2, 0.9], 0.5)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=5.0, allow_nan=False,
                          allow_infinity=False),
                min_size=2, max_size=40))
def test_split_balance_bounded_by_ties(values):
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("ignore")
        theta2 = split_prominent(values, 0.5)
    arr = np.array(values)
    prominent = arr[arr >= 0.5]
    n_upper = int(np.sum(prominent >= theta2))
    n_lower = len(prominent) - n_upper
    ties = int(np.sum(prominent == theta2))
    # >= sends every tie upward, so the upper class can lead by at most
    # 2*ties and can never trail
    assert 0 <= n_upper - n_lower <= 2 * ties
