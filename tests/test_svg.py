from xml.sax.saxutils import escape

from hypothesis import example, given
from hypothesis import strategies as st

from bornlab.svg import _escape, line_chart_svg


@given(st.text())
@example("a & b < c > d; &amp; \"quoted\" 'single'")
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_chart_title_is_escaped():
    svg = line_chart_svg([0.0, 1.0], [0.0, 1.0], title="P(x) < 1 & Q > 0")
    assert ">P(x) &lt; 1 &amp; Q &gt; 0</text>" in svg
