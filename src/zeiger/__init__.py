"""Zeiger puzzle toolkit: solver, NAE3SAT+ reduction, and a card-based
zero-knowledge proof simulation with transcript audits."""

from .grid import (
    Cell,
    Coord,
    Direction,
    Filling,
    Grid,
    GridError,
    parse_filling,
    parse_grid,
    serialize_filling,
    serialize_grid,
    sightline,
    verify,
)
from .nae import NaeInstance, gen_nae, nae_brute_force, nae_check, parse_nae, serialize_nae
from .reduction import column_fillings, extract_assignment, lift_assignment, reduce_instance
from .solver import BudgetExhausted, enumerate_solutions, solve

__all__ = [
    "Cell",
    "Coord",
    "Direction",
    "Filling",
    "Grid",
    "GridError",
    "NaeInstance",
    "BudgetExhausted",
    "column_fillings",
    "enumerate_solutions",
    "extract_assignment",
    "gen_nae",
    "lift_assignment",
    "nae_brute_force",
    "nae_check",
    "parse_filling",
    "parse_grid",
    "parse_nae",
    "reduce_instance",
    "serialize_filling",
    "serialize_grid",
    "serialize_nae",
    "sightline",
    "solve",
    "verify",
]
