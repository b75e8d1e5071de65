"""Definition-level oracles: the empirical CDF, the check from outside the
block API, the report texts written row by row, and the double-slit
intensity as its closed form reads.

A histogram holds its counts in origin order (bin 1 nearest its origin), and
its CDF at a point is read off the definition: the fraction of events in
whole bins at or before that point.  Nothing here imports the block
helpers of ``bornlab.sampler`` or ``bornlab.berry_esseen``, so the tests can
compare them against it.

The report oracle spells each row on its own: CSV through a ``csv.writer``
loop, JSON through a row template filled per row, each float by ``repr``
(NaN and Infinity the JSON way).  It imports nothing of ``bornlab.harness``'s
report format, so the tests can compare the column-wise writer against it.

The intensity oracle is the closed form written one numpy expression per
term, each a fresh array; the in-place kernel of ``double_slit_density``
must give its bits.

The quantile map of a density tabulated on a grid (its trapezoid CDF, read
by ``np.interp`` both ways) is the equivariance oracle of the trajectories:
in one dimension a Bohmian particle that starts at quantile u of R^2(0) sits
at quantile u of R^2(t).
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from bornlab.berry_esseen import BinningScheme, Origin
from bornlab.errors import EmptyHistogram


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Binned detection counts, indexed from the origin (bin 1 nearest it)."""

    scheme: BinningScheme
    origin: Origin
    counts: tuple[int, ...]
    total_N: int

    def __post_init__(self):
        if len(self.counts) != self.scheme.bin_count:
            raise ValueError("counts length must equal bin_count")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")
        if sum(self.counts) != self.total_N:
            raise ValueError("counts must sum to total_N")


def empirical_cdf(h: EmpiricalHistogram, x: float) -> float:
    """Fraction of events in whole bins at or before ``x``, counted from the origin.

    A step function, right-continuous at bin edges.  ``from_b`` accumulates
    whole bins from the opposite end, so at any shared edge the two
    orientations sum to exactly 1.
    """
    if h.total_N < 1:
        raise EmptyHistogram("histogram holds no events")
    iv = h.scheme.interval
    if not iv.contains(x):
        raise ValueError(f"x={x} outside the scheme interval [{iv.lo}, {iv.hi}]")
    edges = h.scheme.edges()
    cum = np.cumsum(h.counts)
    if h.origin is Origin.FROM_A:
        # whole bins with right edge <= x
        j = int(np.searchsorted(edges[1:], x, side="right"))
    else:
        # whole bins with left edge >= x
        j = h.scheme.bin_count - int(np.searchsorted(edges[:-1], x, side="left"))
    return 0.0 if j == 0 else float(cum[j - 1]) / h.total_N


def field_texts(row, spell=repr) -> tuple[str, ...]:
    """The CSV text of each field of a report row after its seed, in column
    order (its JSON text too, an origin's unquoted, when ``spell`` writes a
    float's JSON text)."""
    _, n, sup, lo, hi, lo_n, hi_n, v1, v2, v3, v4, bins, origin, a, b = row
    return (str(n), spell(sup), spell(lo), spell(hi), spell(lo_n), spell(hi_n),
            "true" if v1 else "false", "true" if v2 else "false",
            "true" if v3 else "false", "true" if v4 else "false",
            str(bins), origin.value, spell(a), spell(b))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def speller(fmt: str):
    """A float's text in one report: its ``repr``, which JSON writes NaN,
    Infinity and -Infinity when it is nan, inf and -inf."""
    nonfinite = _JSON_NONFINITE if fmt == "json" else {}

    def spell(x) -> str:
        spelled = repr(x)
        return nonfinite.get(spelled, spelled)

    return spell


REPORT_HEADER = ["seed", "N", "sup_deviation", "rhs_lower_const", "rhs_upper_const",
                 "rhs_with_sqrtN_lower", "rhs_with_sqrtN_upper", "verdict_lower_const",
                 "verdict_upper_const", "verdict_with_sqrtN_lower", "verdict_with_sqrtN_upper",
                 "bin_count", "origin", "a_mm", "b_mm"]


def report_csv(report) -> str:
    """The report CSV as a ``csv.writer`` loop writes it."""
    spell = speller("csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for row in report.rows:
        writer.writerow(["" if row.seed is None else str(row.seed), *field_texts(row, spell)])
    return buf.getvalue()


def _row_template() -> str:
    """A row as ``json.dumps(indent=2)`` lays it out in "rows", with %s for
    each value's text; the origin keeps its quotes.  The keys are the
    README's."""
    h, q = "\0", "\1"
    row = {"seed": h, "N": h, "sup_deviation": h, "rhs_lower_const": h, "rhs_upper_const": h,
           "rhs_with_sqrtN_lower": h, "rhs_with_sqrtN_upper": h,
           "verdicts": {"lower_const": h, "upper_const": h, "with_sqrtN_lower": h,
                        "with_sqrtN_upper": h},
           "scheme": {"bin_count": h, "origin": q, "interval": {"a_mm": h, "b_mm": h}}}
    text = "    " + json.dumps(row, indent=2).replace("\n", "\n    ")
    return text.replace('"\\u0000"', "%s").replace("\\u0001", "%s")


_ROW_TEMPLATE = _row_template()


def report_json(report) -> str:
    """The report JSON, each row filled into the template on its own."""
    spell = speller("json")
    rows = ",\n".join(_ROW_TEMPLATE % ("null" if row.seed is None else row.seed,
                                        *field_texts(row, spell)) for row in report.rows)
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    summary = json.dumps(report.summary, indent=2).replace("\n", "\n  ")
    return f'{{\n  "rows": {rows},\n  "summary": {summary}\n}}\n'


def phases(g, t):
    """``(m (t - mu), n (t - mu))`` of the geometry ``g`` at ``t``, with the
    envelope wavenumber ``m(t) = pi w / (lambda hypot(L, t - mu))`` and the
    fringe wavenumber ``n(t) = m(t) d / w``."""
    m_scale = math.pi * g.w_mm / g.lambda_mm
    ratio = g.slit_separation_d / g.slit_width_w
    delta = np.asarray(t, dtype=float) - g.center_mu
    am = m_scale * delta / np.sqrt(g.screen_distance_L**2 + delta * delta)
    return am, am * ratio


def double_slit_intensity(g, t):
    """``I0 cos^2(n (t - mu)) sinc^2(m (t - mu))`` of the geometry ``g`` at
    ``t``, with ``|m (t - mu)|`` below 4e-9 taken as 4e-9 (sinc is 1.0 to the
    last ulp there)."""
    am, an = phases(g, t)
    am_safe = np.where(np.abs(am) < 4e-9, 4e-9, am)
    s = np.sin(am_safe) / am_safe
    c = np.cos(an)
    return g.peak_height_I0 * (c * c) * (s * s)


def _trapezoid_cdf(x, density):
    seg = 0.5 * (density[1:] + density[:-1]) * np.diff(x)
    cdf = np.concatenate(([0.0], np.cumsum(seg)))
    return cdf / cdf[-1]


def born_quantile(x, density, positions):
    """The quantile of each position under ``density`` tabulated on the grid
    ``x``: its trapezoid CDF, read by ``np.interp``."""
    return np.interp(positions, x, _trapezoid_cdf(x, density))


def born_position(x, density, u):
    """The position at each quantile ``u`` under ``density`` on ``x``: the
    inverse of :func:`born_quantile`."""
    return np.interp(u, _trapezoid_cdf(x, density), x)
