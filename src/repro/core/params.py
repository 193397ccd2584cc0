"""Model parameters for Bayesian copy detection (Section II of the paper).

Three inputs drive the Bayesian analysis (footnote 4 of the paper: "alpha,
n, s are inputs and can be set/refined according to [5], [6]"):

* ``alpha`` — a-priori probability that one source copies from another in a
  given direction, ``0 < alpha < 0.5``; ``beta = 1 - 2*alpha`` is the prior
  of independence.
* ``s`` — copy *selectivity*: the probability that a copier copies on any
  particular data item.
* ``n`` — the number of (uniformly distributed) false values in the domain
  of each data item.

The early-termination thresholds of Section IV follow from these:
``theta_ind = ln(beta / 2 alpha)`` (no-copying can be concluded when both
upper bounds fall below it) and ``theta_cp = ln(beta / alpha)`` (copying
can be concluded when either lower bound reaches it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Score-accumulation backends accepted by :attr:`CopyParams.backend`.
#: Lives here rather than in :mod:`repro.core.kernel` so validation
#: never imports NumPy.
BACKENDS = ("python", "numpy")

#: Executors accepted by the parallel engine's ``executor=`` parameter
#: (and the CLI's ``--executor``): ``"serial"`` runs partitions in
#: order in-process, ``"threads"``/``"processes"`` use local pools
#: (shared-memory world broadcast under processes), and ``"remote"``
#: ships partitions to cluster workers over TCP
#: (:mod:`repro.cluster`; requires ``backend="numpy"`` and a worker
#: list).  Lives here so validation never imports NumPy or sockets.
EXECUTORS = ("serial", "threads", "processes", "remote")

#: Reduction topologies accepted by the parallel engine's ``reduce=``
#: parameter (and the CLI's ``--reduce``): ``"flat"`` merges all partial
#: results in one pass, ``"tree"`` merges them pairwise so the reduce is
#: O(log P) deep at large partition counts.  Defined alongside
#: :data:`BACKENDS` so argument validation stays import-light.
REDUCE_MODES = ("flat", "tree")

#: Pair-state layouts accepted by :attr:`CopyParams.pair_layout`:
#: ``"dense"`` allocates flat arrays over the full ``n_sources ** 2``
#: key space, ``"sparse"`` compacts state to the observed pairs
#: (:mod:`repro.core.pairspace`), and ``"auto"`` picks dense below each
#: kernel's documented limit and sparse above it — with a logged
#: warning, never a silent fallback.  Defined alongside :data:`BACKENDS`
#: so validation stays NumPy-free.
PAIR_LAYOUTS = ("auto", "dense", "sparse")


@dataclass(frozen=True)
class CopyParams:
    """Immutable parameter bundle shared by every detector.

    The defaults are the values used in the paper's worked examples
    (Example 2.1: ``alpha = 0.1``, ``s = 0.8``, ``n = 50``).

    Attributes:
        alpha: prior probability of directed copying.
        s: copy selectivity (probability the copier copies a given item).
        n: number of false values per data item domain.
        accuracy_clamp: accuracies are clamped into
            ``[accuracy_clamp, 1 - accuracy_clamp]`` before any log/ratio
            computation so that scores stay finite (sources with accuracy
            exactly 0 or 1 would otherwise produce infinities).
        backend: score-accumulation backend.  ``"numpy"`` (the default
            since the conformance soak completed) routes PAIRWISE,
            INDEX and the parallel engine through the vectorized kernel
            (:mod:`repro.core.kernel`), which agrees with the reference
            to within float re-association error (property-tested at
            1e-9), and the early-terminating BOUND/BOUND+/HYBRID scans
            through the epoch-batched implementation
            (:mod:`repro.core.bound_kernel`), which is *bit-identical*
            to the reference — decisions, decision positions, cost
            counters and INCREMENTAL bookkeeping included.
            ``"python"`` selects the pure-Python reference loops — the
            paper-literal implementation that stays the conformance
            anchor forever (``repro conformance`` diffs every
            configuration against it; the golden fixtures pin it
            byte-for-byte).
        pair_layout: pair-state layout for the numpy kernels.  ``"auto"``
            (the default) keeps the dense flat-array fast path while
            ``n_sources ** 2`` fits under the kernel's documented limit
            (and a bound scan's observed pairs fill a quarter of it), else
            the sparse one (:mod:`repro.core.pairspace`), logging a crossed
            limit; ``"dense"`` / ``"sparse"`` force a layout.  Both layouts are
            bit-identical for the bound family and agree at the usual
            1e-9 for the exhaustive/fusion kernels; the python backend
            ignores the knob (its dict state is inherently sparse).
    """

    alpha: float = 0.1
    s: float = 0.8
    n: int = 50
    accuracy_clamp: float = 0.005
    backend: str = "numpy"
    pair_layout: str = "auto"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {self.s}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.accuracy_clamp < 0.5:
            raise ValueError(
                f"accuracy_clamp must be in (0, 0.5), got {self.accuracy_clamp}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.pair_layout not in PAIR_LAYOUTS:
            raise ValueError(
                f"pair_layout must be one of {PAIR_LAYOUTS}, "
                f"got {self.pair_layout!r}"
            )

    @property
    def beta(self) -> float:
        """Prior probability of independence, ``1 - 2*alpha``."""
        return 1.0 - 2.0 * self.alpha

    @property
    def theta_cp(self) -> float:
        """Copying threshold ``ln(beta/alpha)`` (Section IV-A)."""
        return math.log(self.beta / self.alpha)

    @property
    def theta_ind(self) -> float:
        """No-copying threshold ``ln(beta/(2*alpha))`` (Section IV-A)."""
        return math.log(self.beta / (2.0 * self.alpha))

    def theta_cp_at(self, p_independent: float) -> float:
        """Copying threshold guaranteeing ``Pr(indep | Phi) <= p_independent``.

        Section IV-A's banded variant: to *conclude copying with
        confidence* (e.g. posterior independence below 0.1 rather than
        merely below 0.5), require either direction's lower bound to reach
        ``ln(beta (1-p) / (alpha p))``.  At ``p = 0.5`` this reduces to
        :attr:`theta_cp`.

        Raises:
            ValueError: if ``p_independent`` is not in (0, 1).
        """
        if not 0.0 < p_independent < 1.0:
            raise ValueError(
                f"p_independent must be in (0, 1), got {p_independent}"
            )
        return math.log(
            self.beta * (1.0 - p_independent) / (self.alpha * p_independent)
        )

    def theta_ind_at(self, p_independent: float) -> float:
        """No-copy threshold guaranteeing ``Pr(indep | Phi) > p_independent``.

        Both directions' upper bounds below
        ``ln(beta (1-p) / (2 alpha p))`` force the posterior independence
        probability above ``p`` (e.g. 0.9).  At ``p = 0.5`` this reduces
        to :attr:`theta_ind`.

        Raises:
            ValueError: if ``p_independent`` is not in (0, 1).
        """
        if not 0.0 < p_independent < 1.0:
            raise ValueError(
                f"p_independent must be in (0, 1), got {p_independent}"
            )
        return math.log(
            self.beta * (1.0 - p_independent) / (2.0 * self.alpha * p_independent)
        )

    @property
    def ln_one_minus_s(self) -> float:
        """``ln(1-s)``, the contribution of a differing data item (Eq. 8)."""
        return math.log(1.0 - self.s)

    def clamp_accuracy(self, accuracy: float) -> float:
        """Clamp an accuracy into the open interval the math requires."""
        low = self.accuracy_clamp
        high = 1.0 - self.accuracy_clamp
        if accuracy < low:
            return low
        if accuracy > high:
            return high
        return accuracy


def validate_execution(
    params: CopyParams, n_partitions: int, executor: str, reduce: str
) -> None:
    """Check a partitioned scan's execution arguments.

    The one validation point behind :func:`repro.core.detect`,
    :class:`SingleRoundDetector`, both parallel-engine entry points and
    the conformance grid's case configurations.

    Raises:
        ValueError: for ``n_partitions < 1``, an unknown executor or
            reduce mode, or ``executor="remote"`` off the numpy backend.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    for what, value, allowed in (
        ("executor", executor, EXECUTORS),
        ("reduce mode", reduce, REDUCE_MODES),
    ):
        if value not in allowed:
            raise ValueError(f"unknown {what} {value!r}; expected one of {allowed}")
    if executor == "remote" and params.backend != "numpy":
        raise ValueError(
            "executor='remote' requires backend='numpy' (cluster workers "
            "scan columnar payloads; the python reference loops stay local)"
        )
