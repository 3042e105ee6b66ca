"""Property tests: the card format over every size and face pair, and the
protocol's completeness and soundness over drawn seeds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeiger.cards import CLUB, HEART, MalformedReveal, encode, locate
from zeiger.grid import Filling, verify
from zeiger.protocol import EVEN_STACK, ODD_STACK, ProverBehavior, run_protocol

# (marker stack, other stacks) of the club, heart and pair encodings
ENCODINGS = [(CLUB, HEART), (HEART, CLUB), (ODD_STACK, EVEN_STACK)]
FOREIGN = ["CC", "HH", "C", "H", "HC", "CH"]

seeds = st.integers(0, 2**63 - 1)


@st.composite
def encoded(draw):
    mark, rest = draw(st.sampled_from(ENCODINGS))
    q = draw(st.integers(1, 40))
    x = draw(st.integers(0, q - 1))
    return q, x, mark, rest


@settings(max_examples=200)
@given(encoded())
def test_locate_inverts_encode(case):
    q, x, mark, rest = case
    assert locate(encode(q, x, mark, rest), mark, rest) == x


@settings(max_examples=100)
@given(st.sampled_from(ENCODINGS), st.integers(1, 40))
def test_row_without_marker_is_malformed(enc, q):
    mark, rest = enc
    with pytest.raises(MalformedReveal, match="found 0"):
        locate([rest] * q, mark, rest)


@settings(max_examples=100)
@given(encoded(), st.data())
def test_row_with_several_markers_is_malformed(case, data):
    q, x, mark, rest = case
    row = encode(q, x, mark, rest)
    others = [i for i in range(q) if i != x]
    if not others:
        row.append(mark)
    else:
        for i in data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True)):
            row[i] = mark
    with pytest.raises(MalformedReveal, match="expected exactly one"):
        locate(row, mark, rest)


@settings(max_examples=100)
@given(encoded(), st.data())
def test_row_with_foreign_pattern_is_malformed(case, data):
    q, x, mark, rest = case
    foreign = data.draw(st.sampled_from([p for p in FOREIGN if p not in (mark, rest)]))
    row = encode(q, x, mark, rest)
    row.insert(data.draw(st.integers(0, q)), foreign)
    with pytest.raises(MalformedReveal, match="unexpected pattern"):
        locate(row, mark, rest)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_honest_fig1_accepts(fig1_grid, fig1_solution, seed):
    accept, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed)
    assert accept
    assert t.events[-1] == {"ev": "verdict", "accept": True}


@settings(max_examples=4, deadline=None)
@given(seeds)
def test_every_wrong_value_on_unnumbered_fig1_cell_rejects(fig1_grid, fig1_solution, seed):
    for cell in fig1_grid.coords():
        if fig1_grid.cell(cell).given is not None:
            continue
        for wrong in range(1, fig1_grid.max_value + 1):
            if wrong == fig1_solution.value(cell):
                continue
            values = [list(r) for r in fig1_solution.values]
            values[cell.row - 1][cell.col - 1] = wrong
            bad = Filling(values)
            assert verify(fig1_grid, bad)  # a changed cell breaks its own constraint
            accept, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(bad), seed)
            assert not accept, (cell, wrong)
            assert t.events[-1]["accept"] is False
