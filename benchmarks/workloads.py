"""Scenario workloads of the levysym benchmark and their seeded generator.

Every workload uses a fractional kernel with s = 0.5, data f = 1, half
width 1 and solver_tol 1e-10.  Seed 0 reproduces the baseline geometry
of each workload exactly.  Other seeds translate pieces by whole cells in
a way that keeps the masked cell count unchanged, so a seed changes the
solution and the check slacks but not the amount of work.
"""

import random
from dataclasses import dataclass

BOXES = [[[-1.0, -0.1], [-1.0, 1.0]], [[0.1, 1.0], [-0.5, 0.5]]]
INTERVALS = [[-1.0, -0.2], [0.2, 1.0]]
MASKED_SPREAD = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dimension: int
    n: int
    checks: tuple
    time: dict | None = None
    modulation: dict | None = None

    @property
    def mode(self):
        return "parabolic" if self.time else "elliptic"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="elliptic-2d64",
        why="2-D n=64 elliptic with four checks: dense far field, coarea "
            "perimeters and the exterior tail dominate, the solve is small",
        dimension=2, n=64,
        checks=("comparison", "energy", "polya_szego", "coarea")),
    Workload(
        name="parabolic-1d1024",
        why="1-D n=1024 implicit Euler, 400 steps: 800 PCG solves reuse one "
            "operator, so solver and matvec changes show and assembly does not",
        dimension=1, n=1024,
        checks=("parabolic", "comparison"),
        time={"horizon": 1.0, "steps": 400}),
    Workload(
        name="modulated-2d32",
        why="2-D n=32 with separable_cosine modulation: the only path through "
            "per-row modulation evaluation in the near and far field",
        dimension=2, n=32,
        checks=("comparison", "energy", "polya_szego"),
        modulation={"Lambda": 2.0, "modulation": "separable_cosine",
                    "omega": 3.0}),
)}


def shifted_pieces(workload, n, seed):
    """Domain pieces for a seed, moved by whole cells of width 2/n.

    1-D: the gap between the two intervals slides by k cells, so one
    interval gains what the other loses.  2-D: the second box moves
    vertically by k cells.  Seed 0 gives k = 0.
    """
    reach = n // 16 if workload.dimension == 1 else n // 8
    k = random.Random(seed).randint(-reach, reach) if seed else 0
    h = 2.0 / n
    if workload.dimension == 1:
        (a, b), (c, d) = INTERVALS
        return [[a, b + k * h], [c + k * h, d]]
    first, ((ax, bx), (ay, by)) = BOXES
    return [first, [[ax, bx], [ay + k * h, by + k * h]]]


def masked_count(dimension, n, pieces):
    """Cells whose center lies strictly inside a piece, counted here rather
    than by the program so the generator can check itself."""
    centers = [-1.0 + (i + 0.5) * (2.0 / n) for i in range(n)]
    if dimension == 1:
        return sum(any(a < x < b for a, b in pieces) for x in centers)
    return sum(any(ax < x < bx and ay < y < by
                   for (ax, bx), (ay, by) in pieces)
               for x in centers for y in centers)


def scenario(workload, seed, n=None):
    """The scenario document for a seed; n overrides the resolution."""
    n = n or workload.n
    pieces = shifted_pieces(workload, n, seed)
    base = masked_count(workload.dimension, n, shifted_pieces(workload, n, 0))
    count = masked_count(workload.dimension, n, pieces)
    if abs(count - base) > MASKED_SPREAD * base:
        raise ValueError(f"seed {seed} moves the masked count from {base} "
                         f"to {count}, beyond {MASKED_SPREAD:.0%}")
    kernel = {"kind": "fractional", "s": 0.5}
    kernel.update(workload.modulation or {})
    doc = {
        "schema": 1,
        "dimension": workload.dimension,
        "domain": {"type": "intervals" if workload.dimension == 1 else "boxes",
                   "pieces": pieces},
        "n": n,
        "half_width": 1.0,
        "kernel": kernel,
        "f": {"kind": "constant", "value": 1.0},
        "checks": list(workload.checks),
        "tolerances": {"solver_tol": 1e-10},
        "output": "out",
        "seed": seed,
    }
    if workload.time:
        doc["time"] = dict(workload.time)
    return doc
