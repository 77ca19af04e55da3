import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitsim.harness import ReportRow, ReportTable, render_table
from splitsim.metrics import (ConfusionCounts, MetricError, MetricReport, auprc,
                              cohen_kappa, confusion, evaluate, f1, median_drop,
                              percent_drop, sign_test_p, threshold_at_sensitivity)

# First/Last/%drop rows of the two reference result tables
# (client rows, then client-count-setting rows).
ORDER_TABLE = [
    ("A", 0.4318, 0.5833, 25.97, 0.26, 0.41, 36.59, 0.1107, 0.3032, 63.49),
    ("B", 0.4915, 0.8651, 43.19, 0.30, 0.76, 60.53, 0.1607, 0.7340, 78.11),
    ("C", 0.5738, 0.7940, 27.73, 0.53, 0.74, 28.38, 0.4528, 0.7064, 35.90),
    ("D", 0.4900, 0.6897, 28.95, 0.55, 0.63, 12.70, 0.4794, 0.5788, 17.17),
    ("E", 0.7258, 0.8244, 11.96, 0.71, 0.78, 8.97, 0.6787, 0.7510, 9.63),
]
SETTING_TABLE = [
    ("2", 0.5986, 0.6616, 9.52, 0.44, 0.51, 13.72, 0.3414, 0.4281, 20.25),
    ("3", 0.5099, 0.6735, 24.29, 0.37, 0.48, 22.92, 0.2604, 0.3905, 33.32),
    ("4", 0.3750, 0.5928, 36.74, 0.31, 0.39, 20.51, 0.1806, 0.2816, 35.87),
    ("5", 0.4318, 0.5833, 25.97, 0.26, 0.41, 36.59, 0.1107, 0.3032, 63.49),
]


def naive_f1(c):
    if c.tp + c.fp == 0 or c.tp + c.fn == 0 or c.tp == 0:
        return 0.0
    p = c.tp / (c.tp + c.fp)
    r = c.tp / (c.tp + c.fn)
    return 2 * p * r / (p + r)


def naive_kappa(c):
    n = c.tp + c.fp + c.fn + c.tn
    po = (c.tp + c.tn) / n
    pe = ((c.tp + c.fp) * (c.tp + c.fn) + (c.fn + c.tn) * (c.fp + c.tn)) / n ** 2
    return (po - pe) / (1 - pe)


def brute_force_auprc(scores, labels):
    """Exhaustive enumeration of every distinct threshold, naive counting."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        recall = tp / n_pos
        precision = tp / int(np.sum(pred))
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestF1:
    def test_closed_form(self):
        assert f1(ConfusionCounts(3, 1, 1, 0)) == pytest.approx(0.75)

    def test_perfect(self):
        assert f1(ConfusionCounts(5, 0, 0, 5)) == 1.0

    def test_zero_tp(self):
        assert f1(ConfusionCounts(0, 5, 5, 0)) == 0.0


class TestKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa(ConfusionCounts(5, 0, 0, 5)) == 1.0

    def test_worked_example(self):
        # p_o = 0.7, p_e = 0.5 -> kappa = 0.4
        assert cohen_kappa(ConfusionCounts(40, 20, 10, 30)) == pytest.approx(0.4)

    def test_chance_level_near_zero(self):
        rng = np.random.default_rng(0)
        kappas = []
        for _ in range(200):
            labels = rng.integers(0, 2, size=400)
            preds = rng.integers(0, 2, size=400)
            c = ConfusionCounts(int(np.sum(preds & labels)),
                                int(np.sum(preds & (1 - labels))),
                                int(np.sum((1 - preds) & labels)),
                                int(np.sum((1 - preds) & (1 - labels))))
            kappas.append(cohen_kappa(c))
        assert abs(np.mean(kappas)) < 0.02

    def test_degenerate_marginals(self):
        with pytest.raises(MetricError, match="chance agreement"):
            cohen_kappa(ConfusionCounts(5, 0, 0, 0))

    @settings(max_examples=300, deadline=None)
    @given(tp=st.integers(0, 10**9), fp=st.integers(0, 10**9),
           fn=st.integers(0, 10**9), tn=st.integers(0, 10**9))
    def test_defined_whenever_both_classes_are_present(self, tp, fp, fn, tn):
        # with a = tp + fn positives and b = tp + fp predicted positives
        # of n, p_e * n^2 = ab + (n - a)(n - b) is linear in b, and at
        # both ends (n(n - a) at b = 0, na at b = n) it is at most
        # n^2 - n when 0 < a < n: p_e <= 1 - 1/n, never 1
        assume(tp + fn >= 1 and fp + tn >= 1)
        assert np.isfinite(cohen_kappa(ConfusionCounts(tp, fp, fn, tn)))


class TestAgainstNaive:
    def test_1000_random_confusion_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fp + fn + tn == 0:
                continue
            c = ConfusionCounts(tp, fp, fn, tn)
            assert f1(c) == pytest.approx(naive_f1(c), abs=1e-12)
            n = c.total
            pe = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / n ** 2
            if pe != 1.0:
                assert cohen_kappa(c) == pytest.approx(naive_kappa(c), abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_swept_case(self):
        # points (R=0.5, P=1.0), (R=1.0, P=2/3) -> 0.5 + 0.5 * 2/3 = 5/6
        assert auprc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6)

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(2)
        vals = []
        for _ in range(100):
            labels = np.array([1] * 250 + [0] * 250)
            scores = rng.uniform(size=500)
            vals.append(auprc(scores, labels))
        # finite-sample bias of random ranking is positive but shrinks with n
        assert np.mean(vals) == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auprc([0.5, 0.6], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(MetricError):
            auprc([0.9, bad, 0.2, 0.1], [1, 1, 0, 0])
        with pytest.raises(MetricError):
            auprc([bad] * 4, [1, 0, 0, 0])

    def test_ties_processed_as_one_group(self):
        # all scores equal: single group, area = prevalence
        assert auprc([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0]) == pytest.approx(0.25)

    def test_matches_brute_force_small_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 21))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.uniform(size=n), 2)  # rounded: force ties
            assert auprc(scores, labels) == pytest.approx(
                brute_force_auprc(scores, labels), abs=1e-12)


def grouped_loop_auprc(scores, labels):
    """The former auprc body: a Python walk over each score group, with
    a per-group np.sum of its positives."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    area = 0.0
    tp = 0
    seen = 0
    prev_recall = 0.0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int(np.sum(y[i:j] == 1))
        seen += j - i
        recall = tp / n_pos
        precision = tp / seen
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return area


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_auprc_bit_equals_the_group_loop(data):
    n = data.draw(st.integers(2, 60))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
        lambda ys: 0 < sum(ys) < n))
    # few distinct values force ties; signed zeros are one group
    values = data.draw(st.sampled_from([[0.0, -0.0, 0.5, 1.0],
                                        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]]))
    scores = data.draw(st.lists(st.sampled_from(values) | st.floats(-1e3, 1e3),
                                min_size=n, max_size=n))
    label_dtype = data.draw(st.sampled_from([np.int64, np.float64]))
    ys = np.array(labels, dtype=label_dtype)
    assert auprc(scores, ys) == grouped_loop_auprc(scores, ys)


class TestThresholdAtSensitivity:
    def test_enumerated_case(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1, 0.6, 0.5])
        labels = np.array([1, 1, 1, 1, 0, 0])
        thr, flag = threshold_at_sensitivity(scores, labels, 0.75)
        assert thr == 0.7 and not flag
        c = confusion(scores, labels, thr)
        assert c.tp / (c.tp + c.fn) == 0.75

    def test_target_zero_degenerate(self):
        thr, flag = threshold_at_sensitivity([0.9, 0.3], [1, 1], 0.0)
        assert thr == 0.9 and flag

    def test_target_one(self):
        thr, flag = threshold_at_sensitivity([0.9, 0.8, 0.1], [1, 1, 1], 1.0)
        assert thr == 0.1 and not flag

    def test_no_positives_rejected(self):
        with pytest.raises(MetricError):
            threshold_at_sensitivity([0.5], [0], 0.8)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1, width=32), min_size=2, max_size=30),
           st.integers(0, 2 ** 31), st.floats(0.01, 1.0))
    def test_recall_meets_target(self, scores, seed, target):
        labels = np.random.default_rng(seed).integers(0, 2, size=len(scores))
        if labels.sum() == 0:
            labels[0] = 1
        scores = np.array(scores)
        thr, _ = threshold_at_sensitivity(scores, labels, target)
        c = confusion(scores, labels, thr)
        assert c.tp / (c.tp + c.fn) >= min(target, 1.0) - 1e-12

    def test_raising_threshold_never_increases_recall(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0] = 1
        recalls = []
        for thr in sorted(scores):
            c = confusion(scores, labels, thr)
            recalls.append(c.tp / (c.tp + c.fn))
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))


class TestPercentDrop:
    def test_reference_examples(self):
        assert percent_drop(0.4318, 0.5833) == pytest.approx(25.97, abs=0.02)
        assert percent_drop(0.30, 0.76) == pytest.approx(60.53, abs=0.02)

    def test_no_change(self):
        assert percent_drop(0.5, 0.5) == 0.0

    def test_zero_last_rejected(self):
        # percent_drop gives the limit at last == 0; a table rejects the
        # cell unless it is given the text to write in its place
        first = MetricReport(auprc=0.4, f1=0.5, kappa=0.1, threshold=0.5)
        last = MetricReport(auprc=0.5, f1=0.0, kappa=0.2, threshold=0.5)
        assert percent_drop(first.f1, last.f1) == float("-inf")
        with pytest.raises(MetricError):
            render_table(ReportTable([ReportRow("x", first, last)]))

    def test_or_worst_defines_zero_last(self):
        # the worst-case rule: infinite with the sign of last - first,
        # 0 when both are 0, the ratio elsewhere
        assert percent_drop(0.5, 0.0) == float("-inf")
        assert percent_drop(0.0, 0.0) == 0.0
        assert percent_drop(-0.2, 0.0) == float("inf")  # worse off first
        assert percent_drop(0.5, -0.0) == float("-inf")
        assert percent_drop(0.4318, 0.5833) == pytest.approx(25.97, abs=0.02)

    def test_negative_last_keeps_the_sign_of_last_minus_first(self):
        # kappa can go below 0: a probe at -0.0200 first and -0.0027 last
        # is worse off first, so its drop is positive, 0.0173 / 0.0027
        assert percent_drop(-0.0200, -0.0027) == pytest.approx(640.74, abs=0.01)
        assert percent_drop(-0.0027, -0.0200) == pytest.approx(-86.5, abs=0.01)
        assert percent_drop(-0.0200, -0.0200) == 0.0

    @pytest.mark.parametrize("first", [0.5, 0.01, -0.01, -0.2])
    def test_continuous_with_the_zero_last_limit(self, first):
        # from either side of last == 0 the drop has the limit's sign and
        # grows without bound towards it
        limit = percent_drop(first, 0.0)
        for side in (1.0, -1.0):
            drops = [percent_drop(first, side * eps) for eps in (1e-3, 1e-6, 1e-12, 1e-300)]
            assert all(np.sign(d) == np.sign(limit) for d in drops)
            assert all(abs(a) < abs(b) for a, b in zip(drops, drops[1:]))
            assert abs(drops[-1]) > 1e299

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(first=st.floats(-1.0, 1.0), last=st.floats(-1.0, 1.0))
    def test_sign_is_the_sign_of_last_minus_first(self, first, last):
        assert np.sign(percent_drop(first, last)) == np.sign(last - first)

    @pytest.mark.parametrize("row", ORDER_TABLE + SETTING_TABLE,
                             ids=[r[0] for r in ORDER_TABLE] + [f"n{r[0]}" for r in SETTING_TABLE])
    def test_reproduces_reference_table_cells(self, row):
        _, a_f, a_l, a_d, f_f, f_l, f_d, k_f, k_l, k_d = row
        assert percent_drop(a_f, a_l) == pytest.approx(a_d, abs=0.02)
        assert percent_drop(f_f, f_l) == pytest.approx(f_d, abs=0.02)
        assert percent_drop(k_f, k_l) == pytest.approx(k_d, abs=0.02)


class TestSignTest:
    # hand-computed: twice the smaller Binomial(n, 1/2) tail
    @pytest.mark.parametrize("drops, p", [
        ([5.0] * 6 + [-1.0], 0.125),                  # 6 of 7: 2 * (1 + 7) / 128
        ([-5.0] * 6 + [1.0], 0.125),                  # 1 of 7, the other tail
        ([3.0] * 10, 2 / 1024),                       # 10 of 10: 2 * 1 / 1024
        ([2.0] * 8 + [-2.0] * 2, 0.109375),           # 8 of 10: 2 * (1 + 10 + 45) / 1024
        ([], 1.0),                                    # 0 of 0
        ([0.0, 0.0, 0.0], 1.0),                       # zero drops are left out
        ([5.0] * 6 + [0.0, 0.0] + [float("-inf")], 0.125),
        ([1.0, -1.0], 1.0),                           # 2 * 3 / 4, capped at 1
    ])
    def test_exact_two_sided_p(self, drops, p):
        assert sign_test_p(drops) == p


class TestMedianDrop:
    INF = float("inf")

    @pytest.mark.parametrize("drops, text", [
        ([-INF, INF], "undefined"),            # statistics.median gives nan
        ([INF, -INF, INF, -INF], "undefined"),  # the middle two, once sorted
        ([1.0, INF], "inf"),
        ([-INF, -INF], "-inf"),
        ([-INF, 3.0, INF], "3.00"),            # odd count: the middle drop
        ([4.0, 1.0, 2.0, 8.0], "3.00"),
    ])
    def test_median_or_undefined(self, drops, text):
        assert median_drop(drops, "{:.2f}") == text

    def test_template_formats_a_defined_median(self):
        assert median_drop([35.71, 40.0, 30.0], "{:.1f}%") == "35.7%"


class TestEvaluate:
    def test_threshold_from_validation_applied_to_test(self):
        val_scores = np.array([0.9, 0.6, 0.3, 0.2])
        val_labels = np.array([1, 1, 0, 0])
        test_scores = np.array([0.8, 0.7, 0.5, 0.1])
        test_labels = np.array([1, 0, 1, 0])
        rep = evaluate(test_scores, test_labels, val_scores, val_labels)
        assert rep.threshold == 0.6  # recall 0.81 of 2 positives needs both: the lower score
        c = confusion(test_scores, test_labels, rep.threshold)
        assert rep.f1 == pytest.approx(f1(c))

    def test_report_ranges(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[:5] = 1
        labels[-5:] = 0
        rep = evaluate(scores, labels, scores, labels)
        assert 0 <= rep.auprc <= 1
        assert 0 <= rep.f1 <= 1
        assert -1 <= rep.kappa <= 1
