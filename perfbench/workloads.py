"""Workload table and result digests shared by the driver, worker and pinner.

A workload is a tuple of slots, each a (class, degree, count) triple.  One pass
runs `count` curves per slot, in slot order, so every pass has the same degree
mix.  Each slot draws from a pool of `count * POOL` pinned curves made by
``reescurve --field <f> sample-<class> --degree <d> --seed <s>``, and a run is
always all POOL passes, so every run does the same work on the same curves.
The run seed only picks how pool curves are grouped into passes and ordered.
Every input has a recorded input digest and reference report digest in
``pins.json``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

POOL = 3  # passes per run; each slot holds count * POOL curves


@dataclass(frozen=True)
class Workload:
    field: str          # --field spec handed to the sampler
    slots: tuple        # ((class, degree, curves per pass), ...) in pass order
    adjoint: bool       # also run `adjoint-dims` on each very singular curve


WORKLOADS = {
    # Oracle table plus adjoint-dims dominate, little poly.  Only from d = 10
    # on does the native linalg core do more elimination than the packed one.
    "fp-verysingular": Workload("fp", (("verysingular", 10, 1),), True),
    # Assembly, per-generator and identity stages: BiPoly.__mul__ under
    # subst_x, many small packed-core eliminations.
    "fp-mild": Workload("fp", (("mild", 6, 1), ("mild", 7, 2), ("mild", 8, 1)), False),
    # Fraction arithmetic in the per-generator stage; table on the F_p mirror.
    "q-random": Workload(
        "q", (("verysingular", 6, 1), ("mild", 6, 2), ("mild", 7, 1)), False
    ),
    # Tiny plan for perfbench/smoke.py only; not listed in BENCHMARK.json.
    "smoke": Workload("fp", (("verysingular", 5, 1), ("mild", 5, 1)), True),
}


def entry_name(kind: str, d: int, k: int) -> str:
    return f"{kind}-d{d}-{k}"


def entries(wl: Workload):
    """Every pool entry of a workload: (name, class, degree, sampler seed)."""
    return [
        (entry_name(kind, d, k), kind, d, 100 * d + k)
        for kind, d, count in wl.slots
        for k in range(count * POOL)
    ]


def plan(wl: Workload, seed: int):
    """Passes for a run seed: pass i holds `count` pool entry names per slot."""
    rng = random.Random(seed)
    orders = [rng.sample(range(count * POOL), count * POOL) for _, _, count in wl.slots]
    return [
        [
            entry_name(kind, d, k)
            for (kind, d, count), order in zip(wl.slots, orders)
            for k in order[i * count : (i + 1) * count]
        ]
        for i in range(POOL)
    ]


def expected_generators(kind: str, d: int) -> int:
    """Minimal generator count for mu = 2 curves, from the paper's theorems."""
    if kind == "verysingular":
        return (d + 5) // 2 if d % 2 else (d + 6) // 2
    return (d + 1) * (d - 4) // 2 + 5


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(gens: dict, adjoint: dict | None) -> str:
    """Digest of a report's mathematical content; timings and notes masked."""
    content = {
        "d": gens["d"],
        "mu": gens["mu"],
        "properness_degree": gens["properness_degree"],
        "kind": gens["singularity"]["kind"],
        "generators": [[g["bidegree"], g["label"], g["poly"]] for g in gens["generators"]],
        "table": gens["oracle_table"]["cells"],
        "verdicts": gens["verdicts"],
        "adjoint": None if adjoint is None else adjoint["rows"],
    }
    return sha256_text(json.dumps(content, sort_keys=True))
