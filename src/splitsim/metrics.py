"""Evaluation suite: F1, Cohen's kappa, AUPRC, fixed-sensitivity
thresholding, and the percent-drop statistic.

AUPRC is the non-interpolated step sum over a descending-score sweep
(ties processed as one group); trapezoidal PR interpolation is known to
be optimistic and is deliberately not used. AUC-ROC is deliberately
absent: it is misleading at 10% test prevalence.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

DEFAULT_SENSITIVITY = 0.81


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise MetricError("negative confusion count")
        if self.total == 0:
            raise MetricError("empty confusion matrix")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricReport:
    auprc: float
    f1: float
    kappa: float
    threshold: float
    threshold_degenerate: bool = False


def confusion(scores: np.ndarray, labels: np.ndarray, threshold: float) -> ConfusionCounts:
    """Predict positive where score >= threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    tn, fn, fp, tp = np.bincount(2 * pred + pos, minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def f1(c: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall; 0 when tp == 0."""
    if c.tp == 0:
        return 0.0
    precision = c.tp / (c.tp + c.fp)
    recall = c.tp / (c.tp + c.fn)
    return 2.0 * precision * recall / (precision + recall)


def cohen_kappa(c: ConfusionCounts) -> float:
    """(p_o - p_e) / (1 - p_e); raises MetricError when the chance
    agreement p_e is 1 (degenerate marginals)."""
    n = c.total
    p_o = (c.tp + c.tn) / n
    p_e = ((c.tp + c.fp) * (c.tp + c.fn) + (c.fn + c.tn) * (c.fp + c.tn)) / (n * n)
    if p_e == 1.0:
        raise MetricError("chance agreement is 1; kappa undefined")
    return (p_o - p_e) / (1.0 - p_e)


def auprc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve, descending-score sweep with
    step-wise summation: sum of delta-recall times precision at each
    score group that contains positives."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.all(np.isfinite(scores)):
        raise MetricError("auprc needs finite scores")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auprc needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # each score group ends where the sorted score changes: the samples
    # seen and the positives among them up to each group's end
    seen = np.append(np.flatnonzero(s[1:] != s[:-1]) + 1, s.size)
    tps = np.cumsum(labels[order] == 1)[seen - 1]
    recall = tps / n_pos
    # summed left to right, as a loop over the groups would: a running
    # sum, not np.sum's pairwise one, nor Python's sum, which compensates
    # its rounding from 3.12 on
    return float(np.cumsum(np.diff(recall, prepend=0.0) * (tps / seen))[-1])


def threshold_at_sensitivity(scores: np.ndarray, labels: np.ndarray,
                             target: float = DEFAULT_SENSITIVITY):
    """Largest threshold whose recall on (scores, labels) is >= target.

    Returns (threshold, degenerate_flag). target 0 is degenerate: the
    minimal-compliant answer (recall just above zero) is the maximum
    positive score, flagged so callers can tell.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos_scores = np.sort(scores[labels == 1])[::-1]
    if pos_scores.size == 0:
        raise MetricError("no positives; sensitivity target unreachable")
    n_pos = pos_scores.size
    k = int(np.ceil(target * n_pos))
    if k < 1:
        return float(pos_scores[0]), True
    k = min(k, n_pos)
    return float(pos_scores[k - 1]), False


def percent_drop(first: float, last: float) -> float:
    """100 * (last - first) / |last|: the relative performance change of a
    client between training first and training last in a round, with the
    sign of `last - first` (positive: worse off first) also when `last`,
    say a kappa, is below 0.

    At last == 0, where the ratio is undefined, its limit: infinite with
    the sign of `last - first`. A probe that scores 0 when trained last is
    infinitely worse off last (-inf) if it scored above 0 first,
    infinitely worse off first (+inf) if it scored below 0 first, and
    unchanged (0.0) at 0."""
    if last == 0:
        return math.copysign(math.inf, last - first) if first != last else 0.0
    return 100.0 * (last - first) / abs(last)


def median_drop(drops, template: str) -> str:
    """The median of percent drops, formatted by `template`; `undefined`,
    as a table writes an undefined drop, when the two middle drops are
    -inf and +inf, whose mean is nan."""
    median = statistics.median(drops)
    return "undefined" if math.isnan(median) else template.format(median)


def sign_test_p(drops) -> float:
    """Exact two-sided sign-test p-value against "a drop is as likely
    positive as negative": twice the smaller Binomial(n, 1/2) tail, at
    most 1. Zero drops are left out of n; with none left, p is 1."""
    positive = sum(d > 0 for d in drops)
    n = positive + sum(d < 0 for d in drops)
    k = min(positive, n - positive)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


def evaluate(test_scores: np.ndarray, test_labels: np.ndarray,
             val_scores: np.ndarray, val_labels: np.ndarray) -> MetricReport:
    """Full report: threshold picked on validation scores at
    DEFAULT_SENSITIVITY, then applied to the test scores for F1/kappa;
    AUPRC is threshold-free on the test scores."""
    thr, degenerate = threshold_at_sensitivity(val_scores, val_labels, DEFAULT_SENSITIVITY)
    c = confusion(test_scores, test_labels, thr)
    return MetricReport(
        auprc=auprc(test_scores, test_labels),
        f1=f1(c),
        kappa=cohen_kappa(c),
        threshold=thr,
        threshold_degenerate=degenerate,
    )
