import math
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from barrow import Point2, Triangle

# The `pythonpath` setting puts src/ on sys.path of the test process only;
# tests that start `python -m barrow` get it through the environment, so
# the suite runs from a plain checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@st.composite
def triangles(draw):
    """Non-degenerate triangles built from side lengths and an apex angle.

    Constructive rather than filtered: every draw is valid, with the area
    bounded below by a fixed fraction of the squared diameter so that
    barycentric computations stay well conditioned.
    """
    ax = draw(st.floats(-20.0, 20.0, allow_nan=False))
    ay = draw(st.floats(-20.0, 20.0, allow_nan=False))
    heading = draw(st.floats(0.0, 2.0 * math.pi, allow_nan=False))
    ab = draw(st.floats(0.1, 30.0, allow_nan=False))
    ratio = draw(st.floats(0.2, 5.0, allow_nan=False))
    apex = draw(st.floats(0.15, math.pi - 0.15, allow_nan=False))
    orient = draw(st.sampled_from([1.0, -1.0]))
    ac = ratio * ab
    return Triangle(
        Point2(ax, ay),
        Point2(ax + ab * math.cos(heading), ay + ab * math.sin(heading)),
        Point2(
            ax + ac * math.cos(heading + orient * apex),
            ay + ac * math.sin(heading + orient * apex),
        ),
    )


@st.composite
def points_in(draw, lo=-100.0, hi=100.0):
    return Point2(
        draw(st.floats(min_value=lo, max_value=hi, allow_nan=False)),
        draw(st.floats(min_value=lo, max_value=hi, allow_nan=False)),
    )


@pytest.fixture
def unit_right():
    return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))


@pytest.fixture
def equilateral():
    return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, math.sqrt(3.0) / 2.0))


@pytest.fixture
def scalene():
    return Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 2.0))
