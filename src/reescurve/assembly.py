"""What generator assembly returns, for both mu = 2 pipelines.

An Assembly carries the generators together with the objects they were built
from, so the report's verdict stages read them instead of computing them a
second time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .poly import BiPoly


@dataclass
class Generator:
    poly: BiPoly            # original input coordinates, normalized
    bidegree: tuple
    label: str
    # assembly substituted the raw form into the curve and got zero, so the
    # report need not substitute it again (normalizing is a nonzero rescale).
    # It certifies the form assembly built: poly must not change after it.
    substituted: bool = False


@dataclass
class Assembly:
    generators: list                                  # Generators, report order
    # mild pipeline
    deltas: dict = field(default_factory=dict)        # {v: Sylvester form Delta^v}
    morley: object = None                             # MorleyData
    minors: dict = field(default_factory=dict)        # {i: signed minors of level i}
    # very singular pipeline, in the transformed frame
    family: list = field(default_factory=list)        # high moving line, then the shifts
    tops: list = field(default_factory=list)          # the one or two top forms
