"""Count reports: exact observed value against an exact predicted main term."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class CountReport:
    """An exact count next to its predicted main term.

    ``observed`` is an exact integer (an exact rational for the EPO
    character-sum estimate), ``predicted_main`` an exact rational,
    ``envelope`` an optional floating upper bound for the absolute
    deviation.  Deviations are computed exactly and only converted to
    float for the relative form.
    """

    observed: int | Fraction
    predicted_main: Fraction
    envelope: float | None = None
    notes: dict | None = None

    @property
    def deviation(self):
        return Fraction(self.observed) - self.predicted_main

    @property
    def relative_deviation(self):
        if self.predicted_main == 0:
            return float("inf") if self.observed else 0.0
        return float(Fraction(self.deviation, self.predicted_main))

    @property
    def within_envelope(self):
        if self.envelope is None:
            return None
        return abs(float(self.deviation)) <= self.envelope

    def to_json(self):
        dev = self.deviation
        out = {
            "observed": str(self.observed),
            "predicted_main": {
                "num": str(self.predicted_main.numerator),
                "den": str(self.predicted_main.denominator),
            },
            "deviation": "%d/%d" % (dev.numerator, dev.denominator),
            "relative_deviation": self.relative_deviation,
        }
        if self.envelope is not None:
            out["envelope"] = repr(self.envelope)
            out["within_envelope"] = self.within_envelope
        if self.notes is not None:
            out["notes"] = self.notes
        return out
