"""Survivability strategies and configuration approaches."""

from __future__ import annotations

from enum import Enum


class SurvivabilityMode(str, Enum):
    NONE = "none"
    SINGLE_LAYER = "single-layer"
    ML_DOUBLE = "ml-double-protection"
    ML_SPARE_UNPROTECTED = "ml-spare-unprotected"
    ML_INTERLAYER_BRS = "ml-interlayer-brs"

    @property
    def multilayer(self) -> bool:
        return self in (SurvivabilityMode.ML_DOUBLE,
                        SurvivabilityMode.ML_SPARE_UNPROTECTED,
                        SurvivabilityMode.ML_INTERLAYER_BRS)

    @property
    def plsp_physically_disjoint(self) -> bool:
        """Working/protection LSP pairs must be node-disjoint in the physical
        topology: single layer by definition, and the two multilayer variants
        whose spare-carrying lightpaths are left optically unprotected."""
        return self in (SurvivabilityMode.SINGLE_LAYER,
                        SurvivabilityMode.ML_SPARE_UNPROTECTED,
                        SurvivabilityMode.ML_INTERLAYER_BRS)


class Approach(str, Enum):
    SEQUENTIAL = "sequential"
    INTEGRATED = "integrated"


MODE_CHOICES = tuple(m.value for m in SurvivabilityMode)
APPROACH_CHOICES = tuple(a.value for a in Approach)
