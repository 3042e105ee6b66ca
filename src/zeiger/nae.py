"""NAE3SAT+ instances: parsing, checking, brute-force oracle, random generation.

Each clause holds exactly three distinct positive variables; an assignment
satisfies a clause when its variables are not all equal (at least one true
and at least one false).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

BRUTE_FORCE_MAX_VARS = 24


class NaeError(ValueError):
    """Malformed instance text or invalid clause."""


@dataclass(frozen=True)
class NaeInstance:
    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not self.clauses:  # reduces to a grid whose solution extracts no assignment
            raise NaeError("instance has no clauses")
        for cl in self.clauses:
            if len(cl) != 3:
                raise NaeError(f"clause {cl} has {len(cl)} variables, expected 3")
            if len(set(cl)) != 3:
                raise NaeError(f"repeated variable in clause {cl}")
            for v in cl:
                if not 1 <= v <= self.n:
                    raise NaeError(f"variable index {v} out of range [1,{self.n}]")
        used = {v for cl in self.clauses for v in cl}
        if used != set(range(1, self.n + 1)):
            unused = sorted(set(range(1, self.n + 1)) - used)
            raise NaeError(f"unused variables {unused}; normalize first")

    @property
    def m(self) -> int:
        return len(self.clauses)


Assignment = tuple[bool, ...]


def normalize(n: int, clauses: list[tuple[int, int, int]]) -> tuple[NaeInstance, dict[int, int]]:
    """Drop unused variables, remapping indices; returns (instance, old->new map)."""
    used = sorted({v for cl in clauses for v in cl})
    for v in used:
        if not 1 <= v <= n:
            raise NaeError(f"variable index {v} out of range [1,{n}]")
    remap = {old: new for new, old in enumerate(used, start=1)}
    mapped = [tuple(remap[v] for v in cl) for cl in clauses]
    return NaeInstance(len(used), tuple(mapped)), remap


def parse_nae(text: str) -> tuple[NaeInstance, dict[int, int]]:
    """Parse the .nae format; returns the normalized instance and index remap."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise NaeError("empty instance file")
    header = lines[0].split()
    counts = "".join(header[1:])  # int() also takes a sign, "_" and non-ASCII digits
    if len(header) != 3 or header[0] != "nae3sat+" or not (counts.isascii() and counts.isdigit()):
        raise NaeError(f"bad header {lines[0]!r}")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:  # past int()'s digit limit
        raise NaeError(f"bad header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise NaeError(f"header says {m} clauses, file has {len(lines) - 1}")
    clauses = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise NaeError(f"clause {ln!r} must have 3 variables")
        variables = "".join(toks)
        try:
            if not (variables.isascii() and variables.isdigit()):
                raise ValueError
            cl = tuple(int(t) for t in toks)
        except ValueError:
            raise NaeError(f"clause {ln!r} must hold integer variables") from None
        if len(set(cl)) != 3:
            raise NaeError(f"repeated variable in clause {ln!r}")
        clauses.append(cl)
    return normalize(n, clauses)


def serialize_nae(inst: NaeInstance) -> str:
    lines = [f"nae3sat+ {inst.n} {inst.m}"]
    lines.extend(" ".join(str(v) for v in cl) for cl in inst.clauses)
    return "\n".join(lines) + "\n"


def nae_check(inst: NaeInstance, a: Assignment) -> bool:
    """True iff every clause has both a true and a false variable under ``a``."""
    if len(a) != inst.n:
        raise NaeError(f"assignment length {len(a)} != n = {inst.n}")
    for x, y, z in inst.clauses:
        vals = (a[x - 1], a[y - 1], a[z - 1])
        if all(vals) or not any(vals):
            return False
    return True


def nae_brute_force(inst: NaeInstance) -> Optional[Assignment]:
    """Lexicographically first satisfying assignment (False < True), or None."""
    if inst.n > BRUTE_FORCE_MAX_VARS:
        raise NaeError(f"n = {inst.n} too large for brute force (max {BRUTE_FORCE_MAX_VARS})")
    n = inst.n
    masks = [(1 << n - x) | (1 << n - y) | (1 << n - z) for x, y, z in inst.clauses]
    for k in range(1 << n):  # variable q is bit n - q of k, so k counts in that order
        for mask in masks:
            if not 0 != k & mask != mask:  # the clause's variables are all equal
                break
        else:
            return tuple(k >> n - q & 1 == 1 for q in range(1, n + 1))
    return None


def parse_assignment(text: str) -> Assignment:
    """One T/F token per line."""
    vals = []
    for ln in text.splitlines():
        tok = ln.strip()
        if not tok:
            continue
        if tok not in ("T", "F"):
            raise NaeError(f"bad assignment token {tok!r} (expected T or F)")
        vals.append(tok == "T")
    if not vals:
        raise NaeError("empty assignment file")
    return tuple(vals)


def serialize_assignment(a: Assignment) -> str:
    return "\n".join("T" if v else "F" for v in a) + "\n"


def gen_nae(n: int, m: int, seed: int) -> NaeInstance:
    """Random normalized instance: m clauses sampled uniformly over distinct triples."""
    if n < 3:
        raise NaeError("need n >= 3 for three distinct variables per clause")
    if n > BRUTE_FORCE_MAX_VARS:
        raise NaeError(f"n must be <= {BRUTE_FORCE_MAX_VARS}")
    if m < 1:
        raise NaeError("need m >= 1")
    rng = random.Random(seed)
    clauses = [tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(m)]
    inst, _ = normalize(n, clauses)
    return inst
