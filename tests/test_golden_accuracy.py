"""How far each printed value of the small ``abl`` goldens, and each
correlator and functional value of the ``lgi``, ``chained`` and ``monogamy``
goldens, is from exact.

``exact_oracle`` rebuilds each outcome table, correlator table and value in
rational arithmetic from the floats the package holds (states, kets,
projectors, unitaries), so the error of a printed value is measured in ulps
of its exact value; an exact zero's error counts in ulps of 1.0, the
correlators' range.  Each case's bound is
its measured maximum times 1.5, rounded up, plus 2 ulps of headroom: a change
that moves printed bits must stay within it, or say in CHANGES.md which
values got less accurate.  The byte comparison in ``test_golden`` stays; this
bounds accuracy, not bits.  The JSON goldens print full precision (the csv and
pretty ones round to 12 significant digits).  Only cases with at most 6
measured slots (64 strings) run here: the 10-slot ``abl-post-10`` takes about
4 s in rationals.
"""

import json
import math
import pathlib
from fractions import Fraction

import pytest

from exact_oracle import bell_values, spec_table, ulp_error

GOLDEN = pathlib.Path(__file__).parent / "golden"

# golden case -> (spec file stem, largest ulp error measured)
MEASURED = {
    "abl-pure": ("abl-pure", 0.0),
    "abl-mixed": ("abl-mixed", 0.0),
    "abl-mixed-post": ("abl-mixed-post", 0.0),
    "abl-post-gap": ("abl-post-gap", 0.0),
    "abl-post-one": ("abl-post-one", 0.0),
    "abl-post-one-slot-minus": ("abl-post-one", 0.0),
    "abl-post-6": ("abl-post-6", 10.33),
    "abl-mixed-post-8": ("abl-mixed-post-8", 10.65),
}


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_printed_values_within_their_ulp_bound(name):
    spec, measured = MEASURED[name]
    exact = spec_table(GOLDEN / "specs" / f"{spec}.json")
    artifacts = json.loads((GOLDEN / f"{name}.json").read_text())["artifacts"]
    table = artifacts["distribution"]["table"]
    assert list(table) == list(exact)
    printed = [(value, exact[key]) for key, value in table.items()]
    if "abl_probability" in artifacts:
        printed.append((artifacts["abl_probability"], exact[artifacts["outcome"]]))
    worst = max(ulp_error(value, want) for value, want in printed)
    assert worst <= math.ceil(1.5 * measured) + 2


# golden case -> (command, spec file stem or None for the preset, -n, --mode,
# largest ulp error measured)
BELL_MEASURED = {
    "lgi-tsirelson": ("lgi", None, None, "independent", 0.0),
    "lgi-spec": ("lgi", "lgi-spec", None, "independent", 10.63),
    "chained-tsirelson-n3": ("chained", None, 3, "independent", 0.0),
    "chained-spec-n4": ("chained", "chained-spec-n4", None, "independent", 1.99),
    "monogamy-paper-independent": ("monogamy", None, None, "independent", 0.0),
    "monogamy-paper-chained": ("monogamy", None, None, "chained", 0.0),
    "monogamy-unitaries": ("monogamy", "monogamy-unitaries", None, "independent", 6.97),
    "monogamy-unitaries-chained": ("monogamy", "monogamy-unitaries", None, "chained", 7.14),
}


def _printed_and_exact(printed, exact):
    """(printed, exact) for every exact value, walking the JSON alongside it."""
    if isinstance(exact, dict):
        for key, value in exact.items():
            yield from _printed_and_exact(printed[key], value)
    elif isinstance(exact, list):
        assert len(printed) == len(exact)
        for p, e in zip(printed, exact):
            yield from _printed_and_exact(p, e)
    else:
        yield printed, exact


@pytest.mark.parametrize("name", sorted(BELL_MEASURED))
def test_bell_values_within_their_ulp_bound(name):
    command, spec, n, mode, measured = BELL_MEASURED[name]
    exact = bell_values(command, None if spec is None else GOLDEN / "specs" / f"{spec}.json", n, mode)
    artifacts = json.loads((GOLDEN / f"{name}.json").read_text())["artifacts"]
    printed = list(_printed_and_exact(artifacts, exact))
    worst = max(ulp_error(value, want, 1.0) for value, want in printed)
    assert worst <= math.ceil(1.5 * measured) + 2


def test_ulp_error_counts_units_in_the_last_place():
    x = 0.1
    assert ulp_error(x, Fraction(x)) == 0.0
    assert ulp_error(math.nextafter(x, 1.0), Fraction(x)) == 1.0
    assert ulp_error(x + 5 * math.ulp(x), Fraction(x)) == 5.0
    assert ulp_error(0.0, Fraction(0)) == 0.0
    assert ulp_error(1e-300, Fraction(0)) == math.inf
    assert ulp_error(0.25 * math.ulp(1.0), Fraction(0), 1.0) == 0.25
