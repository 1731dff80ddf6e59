"""What generator assembly returns, for both mu = 2 pipelines.

An Assembly carries the generators together with the objects they were built
from, so the report's verdict stages read them instead of computing them a
second time.  Assembly checks only the cheap facts of its forms (shape,
bidegree, nonzero, count); the report's per-generator stage is the one place
where a generator is substituted into the curve.
"""
from __future__ import annotations

from .poly import BiPoly


class Generator:
    __slots__ = ("poly", "bidegree", "label")

    def __init__(self, poly: BiPoly, bidegree: tuple, label: str):
        self.poly = poly            # original input coordinates, normalized
        self.bidegree = bidegree
        self.label = label


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
