"""Fuzz of the text parsers: every text parses or raises MeasureError, and
every parsed pair has a finite distance or raises MeasureError."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from swgeo.families import shell_from_text
from swgeo.measure1d import MeasureError, measure_from_text
from swgeo.sliced import sw_pq
from swgeo.sphere import mc_directions
from swgeo.transport1d import wasserstein_inf, wasserstein_p

NUMBERS = ["0", "-0", "1", "-1", "0.5", "-0.5", "0.25", "2", "3", "1e308", "-1e308",
           "1.7e308", "5e-324", "-5e-324", "1e-300", "1e200"]
TOKENS = NUMBERS + ["nan", "inf", "-inf", "1e400", "x", "atom", "piece", "shell", "#"]

number = st.sampled_from(NUMBERS)
token = st.sampled_from(TOKENS)
soup = st.lists(token, max_size=6).map(" ".join)


@st.composite
def piece_record(draw):
    lo, hi = sorted((float(draw(number)), float(draw(number))))
    density = 1.0 / (hi - lo) if hi > lo else math.inf
    text = repr(density) if math.isfinite(density) and density > 0.0 else draw(token)
    return f"piece {lo!r} {hi!r} {text}"


measure_text = st.lists(st.one_of(
    st.builds("atom {} 1".format, number),
    st.builds("atom {} 0.5".format, number),
    piece_record(),
    soup.map("atom {}".format),
    soup.map("piece {}".format),
    soup,
), min_size=1, max_size=3).map("\n".join)


def shell_record(dim):
    return st.builds(lambda w, r, c: f"shell {w} {r} {' '.join(c)}",
                     st.sampled_from(["1", "0.5"]) | token, number | token,
                     st.lists(number | token, min_size=dim, max_size=dim))


shell_text = st.lists(shell_record(4) | shell_record(3) | soup.map("shell {}".format),
                      min_size=1, max_size=2).map("\n".join)


def parsed(parser, text):
    try:
        return parser(text)
    except MeasureError:
        return None


@settings(max_examples=300, deadline=None)
@given(measure_text, measure_text, st.sampled_from([1.0, 1.5, 2.0, math.inf]))
@example("atom 1e308 1", "atom -1e308 1", 2.0)
def test_measure_text_parses_or_refuses_and_distances_stay_finite(ta, tb, p):
    a, b = parsed(measure_from_text, ta), parsed(measure_from_text, tb)
    if a is None or b is None:
        return
    try:
        d = wasserstein_inf(a, b) if math.isinf(p) else wasserstein_p(a, b, p)
    except MeasureError:
        return
    assert math.isfinite(d) and d >= 0.0


@settings(max_examples=300, deadline=None)
@given(shell_text, shell_text, st.sampled_from([(1.0, 1.0), (2.0, 2.0), (math.inf, math.inf)]))
@example("shell 1 1e308 0.5 0 0 0", "shell 1 1 0 0 0 0", (2.0, 2.0))
@example("shell 0.5 0 1e308 0 0 0\nshell 0.5 0 -1e308 0 0 0", "shell 1 0 0 0 0 1e160",
         (math.inf, math.inf))
def test_shell_text_parses_or_refuses_and_distances_stay_finite(ta, tb, pq):
    a, b = parsed(shell_from_text, ta), parsed(shell_from_text, tb)
    if a is None or b is None:
        return
    try:
        d = sw_pq(a, b, *pq, mc_directions(a.dim, 8, 0))
    except MeasureError:
        return
    assert math.isfinite(d) and d >= 0.0
