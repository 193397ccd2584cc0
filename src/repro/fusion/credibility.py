"""Per-source credibility priors for the Dempster-Shafer fusion method.

ACCU/ACCUCOPY treat every source as equally believable a priori; real
deployments do not (a wire service and an anonymous blog are not the
same witness).  A :class:`CredibilityModel` carries a per-source prior
weight — loaded from configuration, a JSON/CSV file
(:meth:`CredibilityModel.from_file`), or the ``--credibility-file`` CLI
flag — and optionally decays each source's weight by its *observed*
error rate as the fusion loop re-estimates accuracies.

The model is deliberately NumPy-free (this module may be imported by
``repro.fusion`` before any numpy backend is requested) and its default
is provably neutral: a flat model (every prior exactly ``1.0``, zero
decay) multiplies every Dempster-Shafer mass by exactly ``1.0`` and
returns warm-start accuracies unchanged bit for bit, which is what makes
the DS-reduces-to-ACCU parity tests well-posed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

#: Warm-start accuracies scaled by a non-flat prior are clamped into
#: this open interval so a zealous prior cannot push a source to a
#: degenerate 0/1 accuracy before it has provided a single claim.
_ACCURACY_PAD_CLAMP = 1e-3


@dataclass(frozen=True)
class CredibilityModel:
    """Per-source prior believability, with optional error-rate decay.

    Attributes:
        priors: prior weight per source, keyed by source *name* (the
            stable identity across streaming epochs) or by integer
            source id.  Weights must be finite and strictly positive;
            values above ``1.0`` are allowed (a hyper-trusted source)
            and the DS mass clamp keeps the math well-defined.
        default: weight of every source not listed in ``priors``.
        decay: error-rate sensitivity.  The *effective* credibility of a
            source with current accuracy ``A`` is
            ``prior * exp(-decay * (1 - A))`` — at the default ``0.0``
            the exponential is exactly ``1.0`` and the priors pass
            through untouched.
    """

    priors: Mapping[str | int, float] = field(default_factory=dict)
    default: float = 1.0
    decay: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "priors", dict(self.priors))
        for key, weight in self.priors.items():
            if not (isinstance(weight, (int, float)) and math.isfinite(weight)):
                raise ValueError(f"credibility prior for {key!r} is not finite")
            if weight <= 0.0:
                raise ValueError(
                    f"credibility prior for {key!r} must be > 0, got {weight}"
                )
        if not (math.isfinite(self.default) and self.default > 0.0):
            raise ValueError(f"default credibility must be > 0, got {self.default}")
        if not (math.isfinite(self.decay) and self.decay >= 0.0):
            raise ValueError(f"credibility decay must be >= 0, got {self.decay}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls) -> "CredibilityModel":
        """The neutral model: every source weighs exactly ``1.0``."""
        return cls()

    @classmethod
    def from_file(cls, path: "Path | str", decay: float = 0.0) -> "CredibilityModel":
        """Load priors from a JSON object or a ``name,weight`` CSV file.

        JSON files must hold a single object mapping source names to
        positive weights (an optional ``"*"`` key sets the default);
        anything that fails to parse as JSON is read as CSV with one
        ``name,weight`` row per line (blank lines and ``#`` comments
        skipped, a ``*`` name sets the default).

        Raises:
            ValueError: unreadable file, malformed rows, or invalid
                weights (via the dataclass validation).
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read credibility file {path}: {exc}")
        priors: dict[str, float] = {}
        default = 1.0
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if payload is not None:
            if not isinstance(payload, dict):
                raise ValueError(
                    f"{path}: JSON credibility file must hold one object"
                )
            entries = list(payload.items())
        else:
            entries = []
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                name, sep, weight = line.rpartition(",")
                if not sep:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'name,weight', got {line!r}"
                    )
                entries.append((name.strip(), weight.strip()))
        for name, weight in entries:
            try:
                value = float(weight)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}: credibility weight for {name!r} is not a number"
                )
            if name == "*":
                default = value
            else:
                priors[name] = value
        return cls(priors=priors, default=default, decay=decay)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def prior_for(self, source_id: int | None = None, name: str | None = None) -> float:
        """The prior weight of one source (name match wins over id)."""
        if name is not None and name in self.priors:
            return float(self.priors[name])
        if source_id is not None:
            if source_id in self.priors:
                return float(self.priors[source_id])
            key = str(source_id)
            if key in self.priors:
                return float(self.priors[key])
        return float(self.default)

    def effective(
        self, source_names: Sequence[str], accuracies: Sequence[float]
    ) -> list[float]:
        """Effective credibility per source under the current accuracies.

        ``prior * exp(-decay * (1 - A))`` per source; with ``decay == 0``
        the exponential factor is exactly ``1.0``, so a flat model
        returns exactly ``[1.0] * n_sources`` and the DS masses it
        multiplies are untouched bit for bit.
        """
        out = []
        for source_id, name in enumerate(source_names):
            prior = self.prior_for(source_id, name)
            if self.decay:
                prior *= math.exp(-self.decay * (1.0 - float(accuracies[source_id])))
            out.append(prior)
        return out

    def initial_accuracy_for(
        self,
        base: float,
        source_id: int | None = None,
        name: str | None = None,
    ) -> float:
        """Starting accuracy for a source never seen before.

        The streaming engine routes warm-start padding of *grown*
        sources through this instead of using ``base`` directly, so a
        configured prior shapes the first epoch a new source
        participates in.  A prior of exactly ``1.0`` returns ``base``
        unchanged (bit for bit — the flat-model parity guarantee);
        anything else scales ``base`` by the prior and clamps it into
        the open unit interval.
        """
        prior = self.prior_for(source_id, name)
        if prior == 1.0:
            return base
        return min(max(base * prior, _ACCURACY_PAD_CLAMP), 1.0 - _ACCURACY_PAD_CLAMP)
