import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgk.errors import ContractError, ShapeError
from mgk.metrics import (ConfusionMatrix, UndefinedKappaError, accumulate,
                         average_accuracy, kappa, overall_accuracy,
                         per_class_accuracy, report_text, write_report_csv)

# Reference Indian Pines results (16 classes, 50/15 train pixels per class):
# per-class recall percentages for eleven classifiers, the published OA/AA
# rows, and the test-pixel count per class. Used to cross-check the metric
# definitions against an independently tabulated source.
REFERENCE_TEST_COUNTS = np.array(
    [1384, 784, 184, 447, 697, 439, 918, 2418, 564, 162, 1244, 330, 45, 39,
     11, 5])
REFERENCE_PER_CLASS = {
    "knn": [45.45, 46.94, 77.72, 84.56, 80.06, 97.49, 64.81, 48.68, 44.33,
            96.30, 74.28, 15.45, 91.11, 33.33, 81.82, 40.00],
    "rf": [57.80, 56.51, 80.98, 85.68, 79.34, 95.44, 77.56, 58.85, 62.23,
           95.06, 88.75, 54.24, 97.78, 56.41, 81.82, 100.00],
    "svm": [67.34, 67.86, 93.48, 94.63, 88.52, 94.76, 73.86, 52.07, 72.70,
            98.77, 86.17, 71.82, 95.56, 82.05, 90.91, 100.00],
    "cnn1d": [47.83, 42.35, 60.87, 89.49, 92.40, 97.04, 59.69, 65.38, 93.44,
              99.38, 84.00, 86.06, 91.11, 84.62, 100.00, 80.00],
    "cnn2d": [65.90, 76.66, 92.39, 93.96, 87.23, 97.27, 77.23, 57.03, 72.87,
              100.00, 92.85, 88.18, 100.00, 84.62, 100.00, 100.00],
    "cnn3d": [66.26, 71.94, 97.28, 95.08, 88.09, 98.18, 75.38, 56.29, 78.01,
              100.00, 90.59, 90.30, 100.00, 74.36, 100.00, 100.00],
    "gcn": [65.97, 72.70, 87.50, 93.74, 91.39, 97.49, 75.38, 51.70, 62.77,
            96.91, 86.25, 66.97, 95.56, 71.79, 81.82, 100.00],
    "minigcn": [72.54, 55.99, 92.93, 92.62, 94.98, 98.63, 64.71, 68.78,
                69.33, 98.77, 87.78, 50.00, 100.00, 48.72, 72.73, 80.00],
    "funet-a": [68.64, 80.99, 95.11, 96.64, 95.41, 99.32, 72.98, 70.31,
                74.82, 99.38, 85.93, 93.03, 100.00, 79.49, 100.00, 100.00],
    "funet-m": [69.51, 82.40, 94.57, 96.42, 96.99, 99.54, 76.80, 58.97,
                74.82, 99.38, 79.50, 91.21, 100.00, 82.05, 100.00, 100.00],
    "funet-c": [68.50, 79.59, 99.46, 95.08, 95.70, 99.54, 75.93, 68.90,
                71.63, 99.38, 89.55, 91.52, 100.00, 94.87, 100.00, 100.00],
}
REFERENCE_AA = {
    "knn": 63.90, "rf": 76.78, "svm": 83.16, "cnn1d": 79.60, "cnn2d": 86.64,
    "cnn3d": 86.36, "gcn": 81.12, "minigcn": 78.03, "funet-a": 88.25,
    "funet-m": 87.64, "funet-c": 89.35,
}
REFERENCE_OA = {
    "knn": 59.17, "rf": 69.80, "svm": 72.36, "cnn1d": 70.43, "cnn2d": 75.89,
    "cnn3d": 75.48, "gcn": 71.97, "minigcn": 75.11, "funet-a": 79.76,
    "funet-m": 76.76, "funet-c": 79.89,
}


def cm_from_recalls(recalls, counts):
    """Rebuild a plausible confusion matrix from per-class recall percents.

    Diagonal entries are round(recall * count / 100); the remainder of each
    row is dumped into an arbitrary off-diagonal cell, which leaves OA and
    AA unchanged (they only read the diagonal and row sums).
    """
    c = len(recalls)
    counts_mat = np.zeros((c, c), dtype=np.int64)
    for i, (r, n) in enumerate(zip(recalls, counts)):
        hit = int(round(r * n / 100.0))
        counts_mat[i, i] = hit
        if n - hit:
            counts_mat[i, (i + 1) % c] = n - hit
    return ConfusionMatrix(counts=counts_mat)


def test_accumulate_basic_cases():
    cm = accumulate([0, 1, 2], [0, 1, 2], num_classes=3)
    assert np.array_equal(cm.counts, np.eye(3, dtype=np.int64))
    cm = accumulate([1], [2], num_classes=3)
    want = np.zeros((3, 3), dtype=np.int64)
    want[1, 2] = 1
    assert np.array_equal(cm.counts, want)


@given(st.integers(0, 2**32 - 1))
def test_accumulate_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, c = 40, 4
    y_true = rng.integers(0, c, size=n)
    y_pred = rng.integers(0, c, size=n)
    cm = accumulate(y_true, y_pred, num_classes=c)
    for t in range(c):
        for p in range(c):
            assert cm.counts[t, p] == np.sum((y_true == t) & (y_pred == p))


def test_accumulate_rejects_mismatch_and_range():
    with pytest.raises(ShapeError):
        accumulate([0, 1], [0], num_classes=2)
    with pytest.raises(ContractError, match="3"):
        accumulate([0, 3], [0, 0], num_classes=3)


def test_overall_accuracy_simple():
    assert overall_accuracy(
        ConfusionMatrix(counts=np.eye(3, dtype=np.int64) * 7)) == 100.0
    assert overall_accuracy(
        ConfusionMatrix(counts=np.full((2, 2), 5, dtype=np.int64))) == 50.0
    with pytest.raises(ContractError):
        overall_accuracy(ConfusionMatrix(counts=np.zeros((2, 2),
                                                         dtype=np.int64)))


def test_average_accuracy_simple():
    counts = np.array([[10, 0], [5, 5]], dtype=np.int64)
    assert average_accuracy(ConfusionMatrix(counts=counts)) == 75.0
    lopsided = np.array([[10, 0], [7, 0]], dtype=np.int64)
    assert average_accuracy(ConfusionMatrix(counts=lopsided)) == 50.0


def test_kappa_hand_case():
    counts = np.array([[40, 10], [20, 30]], dtype=np.int64)
    assert kappa(ConfusionMatrix(counts=counts)) == pytest.approx(0.4,
                                                                  abs=1e-12)


def test_kappa_boundary_cases():
    perfect = ConfusionMatrix(counts=np.eye(3, dtype=np.int64) * 4)
    assert kappa(perfect) == pytest.approx(1.0, abs=1e-12)
    # independent predictions at the chance rate
    chance = ConfusionMatrix(counts=np.full((2, 2), 25, dtype=np.int64))
    assert kappa(chance) == pytest.approx(0.0, abs=1e-12)
    degenerate = np.zeros((2, 2), dtype=np.int64)
    degenerate[0, 0] = 9
    with pytest.raises(UndefinedKappaError):
        kappa(ConfusionMatrix(counts=degenerate))


def test_kappa_one_iff_diagonal():
    counts = np.eye(3, dtype=np.int64) * 5
    counts[0, 1] = 1
    assert kappa(ConfusionMatrix(counts=counts)) < 1.0


@given(st.integers(0, 2**32 - 1))
def test_oa_aa_invariant_under_class_relabeling(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 20, size=(4, 4)).astype(np.int64)
    counts += np.eye(4, dtype=np.int64)  # no empty true classes
    cm = ConfusionMatrix(counts=counts)
    perm = rng.permutation(4)
    permuted = ConfusionMatrix(counts=counts[np.ix_(perm, perm)])
    assert overall_accuracy(cm) == pytest.approx(overall_accuracy(permuted))
    assert average_accuracy(cm) == pytest.approx(average_accuracy(permuted))


def test_reference_minigcn_column_reproduces_summary_rows():
    cm = cm_from_recalls(REFERENCE_PER_CLASS["minigcn"],
                         REFERENCE_TEST_COUNTS)
    assert average_accuracy(cm) == pytest.approx(78.03, abs=0.01)
    assert overall_accuracy(cm) == pytest.approx(75.11, abs=0.1)


def test_reference_funet_c_column_reproduces_summary_rows():
    cm = cm_from_recalls(REFERENCE_PER_CLASS["funet-c"],
                         REFERENCE_TEST_COUNTS)
    assert average_accuracy(cm) == pytest.approx(89.35, abs=0.01)
    assert overall_accuracy(cm) == pytest.approx(79.89, abs=0.1)


@pytest.mark.parametrize("method", sorted(REFERENCE_PER_CLASS))
def test_reference_aa_matches_column_mean_for_every_method(method):
    cm = cm_from_recalls(REFERENCE_PER_CLASS[method], REFERENCE_TEST_COUNTS)
    assert average_accuracy(cm) == pytest.approx(REFERENCE_AA[method],
                                                 abs=0.01)
    assert overall_accuracy(cm) == pytest.approx(REFERENCE_OA[method],
                                                 abs=0.1)


def test_per_class_accuracy_nan_for_empty_rows():
    counts = np.array([[4, 0], [0, 0]], dtype=np.int64)
    acc = per_class_accuracy(ConfusionMatrix(counts=counts))
    assert acc[0] == 100.0
    assert np.isnan(acc[1])
    assert average_accuracy(ConfusionMatrix(counts=counts)) == 100.0


def test_report_text_contains_summary_lines():
    cm = accumulate([0, 0, 1], [0, 1, 1], num_classes=2)
    text = report_text(cm)
    assert "overall accuracy" in text
    assert "average accuracy" in text
    assert "kappa" in text


def test_report_text_class_rows_are_pinned():
    cm = accumulate([0, 0, 1], [0, 1, 1], num_classes=3)
    rows = report_text(cm).splitlines()
    assert rows[0] == "class               samples  recall %"
    assert rows[1] == "class 1                   2     50.00"
    assert rows[2] == "class 2                   1    100.00"
    assert rows[3] == "class 3                   0       n/a"


def test_report_csv_schema_and_consistency():
    cm = accumulate([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
    buf = io.StringIO()
    write_report_csv(cm, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "class_id,samples,recall_pct"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["oa"][2]) == overall_accuracy(cm)
    assert float(rows["aa"][2]) == average_accuracy(cm)
    assert float(rows["kappa"][2]) == kappa(cm)
    # AA equals the mean of the per-class column it just printed
    per_class = [float(rows[str(c + 1)][2]) for c in range(2)]
    assert np.mean(per_class) == pytest.approx(average_accuracy(cm))
    assert int(rows["oa"][1]) == 4
