"""Incremental view maintenance over the committed redo-op stream.

See :mod:`repro.views.registry` for the maintenance model and
:mod:`repro.views.analysis` for the delta-supported query shape.
"""

from repro.views.analysis import Fallback, Footprint, ViewPlan, analyse
from repro.views.registry import View, ViewRegistry, ViewResult, ViewStats

__all__ = [
    "Fallback",
    "Footprint",
    "View",
    "ViewPlan",
    "ViewRegistry",
    "ViewResult",
    "ViewStats",
    "analyse",
]
