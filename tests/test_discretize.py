"""Label discretization and threshold calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab.corpus_io import NA
from prosolab.discretize import (
    Thresholds,
    calibrate_binary,
    discretize,
    split_prominent,
)

from conftest import DATASET_CONTINUOUS, DATASET_DISCRETE, codes

DEFAULT = Thresholds(0.5, 1.0)

value_list = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=30,
)


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def _discretize_loop(values, t: Thresholds, n_classes: int = 3) -> list:
    """The per-value loop discretize replaced: None stays None."""
    out = []
    for v in values:
        if v is None:
            out.append(None)
        elif v < t.theta1:
            out.append(0)
        elif n_classes == 2 or v < t.theta2:
            out.append(1)
        else:
            out.append(2)
    return out


def test_discretize_reference_sentence():
    values = np.array(DATASET_CONTINUOUS, dtype=np.float64)  # NaN at None
    assert discretize(values, DEFAULT).tolist() == codes(
        DATASET_DISCRETE).tolist()


def test_discretize_all_zero():
    assert discretize([0.0, 0.0, 0.0], DEFAULT).tolist() == [0, 0, 0]


def test_discretize_boundaries_inclusive_upward():
    assert discretize([0.5], DEFAULT).tolist() == [1]
    assert discretize([1.0], DEFAULT).tolist() == [2]
    assert discretize([0.5], Thresholds(0.5), n_classes=2).tolist() == [1]
    assert discretize([0.49999], DEFAULT).tolist() == [0]


def test_discretize_two_way():
    got = discretize([0.1, 0.5, 2.0, math.nan], Thresholds(0.5), n_classes=2)
    assert got.tolist() == [0, 1, 1, NA]


# values on and next to both thresholds, 0.0, large values and NaN
near_threshold = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, 1e300,
                     np.finfo(float).max]),
    st.sampled_from([0.5, 1.0]).flatmap(lambda theta: st.sampled_from(
        [float(np.nextafter(theta, 0.0)), float(np.nextafter(theta, 2.0))])),
    st.floats(min_value=0.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(near_threshold, max_size=30), st.sampled_from([2, 3]))
def test_discretize_matches_the_per_value_loop(values, n_classes):
    t = DEFAULT if n_classes == 3 else Thresholds(DEFAULT.theta1)
    got = discretize(values, t, n_classes)
    want = _discretize_loop([None if math.isnan(v) else v for v in values],
                            t, n_classes)
    assert got.dtype == np.int8
    assert got.tolist() == codes(want).tolist()
    assert ((got == NA) == np.isnan(values)).all()


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
    assert [min(v, 1) for v in three.tolist()] == two.tolist()


# ---------------------------------------------------------------------------
# calibrate_binary
# ---------------------------------------------------------------------------

def test_calibrate_separable():
    t = calibrate_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert t.theta1 == pytest.approx(0.5)
    assert t.theta2 is None
    got = discretize([0.1, 0.2, 0.8, 0.9], t, n_classes=2)
    assert got.tolist() == [0, 0, 1, 1]


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


@pytest.mark.parametrize("label", [0.7, float("nan"), 2, -1])
def test_calibrate_rejects_a_label_not_0_or_1(label):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        calibrate_binary([0.1, 0.4, 0.6, 0.9], [0, label, 1, 1])


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
