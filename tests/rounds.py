"""Every round's verdict table, for the tests that compare rounds.

:func:`repro.run_fusion` keeps one :class:`~repro.core.DetectionResult`,
the final round's (``FusionResult.final_detection()``); each
``RoundRecord.detection`` is a summary (method, cost, pair count).  A
test or golden builder that needs every round's table wraps its
detector here.  The product has no hook for it.
"""

from __future__ import annotations

from repro import run_fusion


class KeepRounds:
    """A round detector that keeps each result the wrapped one returns.

    Every other attribute (``params``, ``bind_workspace``, ``state``) is
    the wrapped detector's, so :func:`~repro.run_fusion` binds, checks and
    drives the wrapper exactly as it would the detector itself.
    """

    def __init__(self, detector):
        self.detector = detector
        self.results = []

    def __getattr__(self, name):
        return getattr(self.detector, name)

    def run_round(self, round_no, dataset, probabilities, accuracies):
        result = self.detector.run_round(round_no, dataset, probabilities, accuracies)
        self.results.append(result)
        return result


def fuse_keeping_rounds(dataset, params, detector, *args, **kwargs):
    """:func:`~repro.run_fusion` over ``detector``; returns ``(fusion,
    results)``, ``results`` being every round's detection result in
    round order (``None`` per round when ``detector`` is ``None``)."""
    kept = None if detector is None else KeepRounds(detector)
    fusion = run_fusion(dataset, params, kept, *args, **kwargs)
    return fusion, kept.results if kept else [None] * fusion.n_rounds
