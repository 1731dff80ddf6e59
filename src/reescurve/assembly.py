"""What generator assembly returns, for both mu = 2 pipelines.

An Assembly carries the generators together with the objects they were built
from, so the report's verdict stages read them instead of computing them a
second time.
"""
from __future__ import annotations

from .poly import BiPoly


class Generator:
    __slots__ = ("poly", "bidegree", "label", "substituted")

    def __init__(self, poly: BiPoly, bidegree: tuple, label: str, substituted: bool = False):
        self.poly = poly            # original input coordinates, normalized
        self.bidegree = bidegree
        self.label = label
        # assembly substituted the raw form into the curve and got zero, so
        # the report need not substitute it again (normalizing is a nonzero
        # rescale).  It certifies the form assembly built: poly must not
        # change after it.
        self.substituted = substituted


class Assembly:
    __slots__ = ("generators", "deltas", "morley", "minors", "family", "tops")

    def __init__(self, generators: list, deltas: dict | None = None, morley=None,
                 minors: dict | None = None, family: list | None = None,
                 tops: list | None = None):
        self.generators = generators                # Generators, report order
        # mild pipeline
        self.deltas = {} if deltas is None else deltas      # {v: Sylvester form Delta^v}
        self.morley = morley                                # MorleyData
        self.minors = {} if minors is None else minors      # {i: signed minors of level i}
        # very singular pipeline, in the transformed frame
        self.family = [] if family is None else family      # high moving line, then the shifts
        self.tops = [] if tops is None else tops            # the one or two top forms
