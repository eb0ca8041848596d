"""Document encoding, CSV rendering, and spec-file parsing."""

import collections
import copy
import csv
import dataclasses
import enum
import io
import itertools
import json
import math
import operator
import pickle
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qhist import (
    BridgingSet,
    ConsistencyReport,
    ElementaryHistory,
    MixedHistory,
    HistoryState,
    MeasurementSetting,
    OutcomeDistribution,
    TimeGrid,
    chained_bell,
    hs_inner,
    normalize,
    optimize_settings,
    run_scenario,
    tsirelson_settings,
    s_lgi,
    temporal_partial_trace,
)
from qhist.errors import ShapeError
from qhist import twostate
from qhist.twostate import mixed_sequence_distribution, sequence_distribution
from qhist.linalg import identity, maximally_mixed, pauli, projector, qubit_ket
from qhist import cli, serialize
from qhist.serialize import (
    MAX_HISTORY_TERMS,
    MAX_SLOT_DIM,
    SpecError,
    bell_spec_from_document,
    distribution_csv,
    document,
    dumps_csv,
    dumps_json,
    dumps_pretty,
    dumps_report,
    experiment_from_document,
    format_number,
    history_from_document,
    load_document,
    matrix_from_document,
    setting_from_document,
    slot_operator_from_document,
    state_from_document,
    to_jsonable,
    trace_csv,
    unitary_from_document,
)

import serialize_oracle
from conftest import random_unitary
from serialize_oracle import complex_pair, matrix_document
from test_golden import CASES as GOLDEN_CASES


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


class _Real(float):
    pass


@dataclasses.dataclass
class _Point:
    x: float
    tags: tuple


# one value of each kind the encoder dispatches on, by its class
_CHAIN_CASES = [
    None, True, 3, "s", 0.25, 1.5 - 2j,
    _Colour.RED, _Name("n"), _Real(0.5),
    np.str_("x"), np.float32(0.1), np.float64(0.2), np.complex64(1 - 2j), np.bool_(True), np.int8(-3),
    np.array([[1, 2]], dtype=np.int16), np.array([1j, 2.0]),
    [np.float32(1.5), (np.int8(2), _Name("m"))],
    types.MappingProxyType({"a": np.float32(1.0)}),
    collections.OrderedDict([(2, np.bool_(False)), ("b", [_Real(2.0)])]),
    _Point(np.float32(0.5), (1, np.complex64(1j))),
    _Point, object(), {1j}, b"bytes",
]


class TestEncoding:
    def test_complex_pair(self):
        assert to_jsonable(1.5 - 2.0j) == [1.5, -2.0]

    def test_matrix_document_shape(self):
        doc = to_jsonable(pauli("Y"))
        assert doc == [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]

    def test_scalars_pass_through(self):
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.bool_(True)) is True
        assert to_jsonable(None) is None

    def test_history_state_document(self):
        g = TimeGrid.regular(2)
        h = HistoryState.from_slots(
            g, (projector(qubit_ket("0")), projector(qubit_ket("+"))), 0.5j
        )
        doc = to_jsonable(h)
        assert doc["grid"]["labels"] == [0.0, 1.0]
        assert doc["terms"][0]["coefficient"] == [0.0, 0.5]
        assert len(doc["terms"][0]["slots"]) == 2

    def test_distribution_document_sorted(self):
        d = OutcomeDistribution(("X",), {"-": 0.5, "+": 0.5})
        doc = to_jsonable(d)
        assert list(doc["table"]) == ["+", "-"]

    def test_bell_report_document(self):
        firsts, seconds = tsirelson_settings()
        rep = s_lgi(maximally_mixed(2), firsts, seconds)
        doc = to_jsonable(rep)
        assert doc["value"] == pytest.approx(2.0 * math.sqrt(2.0))
        assert len(doc["correlators"]) == 2
        assert doc["mode"]

    def test_document_encodes_a_result_once(self):
        firsts, seconds = tsirelson_settings()
        rep = s_lgi(maximally_mixed(2), firsts, seconds)
        doc = document("lgi", rep)
        assert doc["artifacts"] == to_jsonable(rep)
        # to_jsonable is idempotent on its own output, so pre-encoded artifacts read the same
        assert dumps_json(doc) == dumps_json(document("lgi", to_jsonable(rep)))

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    @pytest.mark.parametrize("obj", _CHAIN_CASES, ids=lambda obj: type(obj).__name__)
    def test_matches_the_isinstance_chain(self, obj):
        try:
            want = serialize_oracle.to_jsonable(obj)
        except TypeError as exc:
            with pytest.raises(TypeError) as got:
                to_jsonable(obj)
            assert str(got.value) == str(exc)
            return
        got = to_jsonable(obj)
        assert got == want
        # exact JSON types and sorted keys: str and int subclasses (np.str_,
        # an IntEnum) come back as str and int, as json reads them
        assert repr(got) == repr(json.loads(json.dumps(want, sort_keys=True)))

    def test_scenario_document_roundtrips_through_json(self):
        res = run_scenario("mach-zehnder")
        text = dumps_json(to_jsonable(res))
        parsed = json.loads(text)
        assert parsed["name"] == "mach-zehnder"
        assert parsed["artifacts"]["weight_bright_port"] == pytest.approx(0.5)
        assert parsed["notes"]

    def test_dumps_json_deterministic(self):
        doc = document("t", {"b": 1.0, "a": 2.0}, ("n",))
        assert dumps_json(doc) == dumps_json(json.loads(dumps_json(doc)))
        assert dumps_json(doc).endswith("\n")
        assert dumps_json(doc).index('"a"') < dumps_json(doc).index('"b"')


def _by_term(h) -> dict:
    """A state's document built term by term from ``terms``, one
    ``matrix_document`` per slot operator."""
    return {"grid": to_jsonable(h.grid), "terms": [
        {"coefficient": complex_pair(c), "slots": [matrix_document(op) for op in eh.slots]}
        for c, eh in h.terms]}


def _encoder_cases(rng) -> list:
    """States on random slot dims 2 and 3: merged terms, a cancelled pair,
    a scalar multiple, the same terms read from a spec, and reduction members."""
    # nondecreasing, so that the spec's bridges can be isometries
    dims = tuple(sorted(int(d) for d in rng.choice([2, 3], size=rng.integers(2, 5))))
    grid = TimeGrid(tuple(map(float, range(len(dims)))), dims)
    strings = [ElementaryHistory(grid, tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                                              for d in dims)) for _ in range(rng.integers(1, 6))]
    terms = [(complex(rng.normal(), rng.normal()), strings[i])
             for i in rng.integers(len(strings), size=rng.integers(1, 12))]
    h = HistoryState(tuple(terms))
    extra = ElementaryHistory(grid, tuple(identity(d) for d in dims))
    cancelled = HistoryState(tuple(terms) + ((1.0, extra), (-1.0, extra)))
    spec, _ = history_from_document({
        "grid": {"labels": list(grid.labels), "slot_dims": list(dims)},
        "terms": [{"coefficient": complex_pair(c), "slots": [matrix_document(op) for op in eh.slots]}
                  for c, eh in terms],
        "bridging": [matrix_document(np.eye(b, a)) for a, b in zip(dims, dims[1:])]})
    keep = sorted(rng.choice(len(dims), size=rng.integers(1, len(dims)), replace=False).tolist())
    members = [m for _, m in temporal_partial_trace(h, keep).ensemble]
    return [h, cancelled, (0.7 - 0.2j) * h, spec, *members]


class TestHistoryStateEncoder:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_term_by_term_document(self, seed):
        for h in _encoder_cases(np.random.default_rng(seed)):
            text = serialize._text(h, "\n") + "\n"
            assert "terms" not in vars(h)  # no ElementaryHistory is built
            assert text == dumps_json(_by_term(h))


def _golden_report(name: str) -> tuple:
    """The (name, artifacts, notes) that ``qhist`` writes for a golden case."""
    argv, _ = GOLDEN_CASES[name]
    args = cli._parser().parse_args(argv + ["--format", "json"])
    report, _, _ = cli._HANDLERS[args.command](args)
    return report


def _oracle_text(report: tuple) -> str:
    return json.dumps(serialize_oracle.document(*report), indent=2, sort_keys=True) + "\n"


def _assert_flat_match_the_oracle(report: tuple) -> None:
    """CSV and pretty text flattened straight from the report's objects are
    those of the document the node-by-node oracle builds."""
    doc = serialize_oracle.document(*report)
    assert dumps_csv(serialize._report(*report)) == serialize_oracle.dumps_csv(doc)
    assert dumps_pretty(serialize._report(*report)) == serialize_oracle.dumps_pretty(doc)


def _signed_zeros(rng, a: np.ndarray, real: bool = True) -> np.ndarray:
    """``a`` with about a quarter of its imaginary parts, and of its real
    parts unless ``real`` is false, set to -0.0."""
    out = np.array(a, dtype=complex)
    out.imag[rng.random(out.shape) < 0.25] = -0.0
    if real:
        out.real[rng.random(out.shape) < 0.25] = -0.0
    return out


def _walk_state(n_terms: int, dims: tuple, seed: int, zeros: bool) -> HistoryState:
    """A history state of random terms, its first label and about a quarter
    of its parts -0.0 when ``zeros``."""
    rng = np.random.default_rng(seed)
    labels = tuple(1.25 * k for k in range(len(dims)))
    width = sum(d * d for d in dims)
    rows = rng.normal(size=(n_terms, width)) + 1j * rng.normal(size=(n_terms, width))
    coefs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    if zeros:
        labels = (-0.0,) + labels[1:]
        # no coefficient is zero, so none cancels
        rows, coefs = _signed_zeros(rng, rows), _signed_zeros(rng, coefs, real=False)
    return HistoryState._from_rows(TimeGrid(labels, dims), coefs, rows, distinct=True)


class TestOneWalk:
    """The JSON that ``dumps_report`` writes straight from result objects is
    ``json.dumps`` of the document the node-by-node oracle builds, the plain
    documents are that text parsed back, and the CSV and pretty rows
    flattened from the objects are the oracle's rows of that document."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_case_objects_match_the_oracle(self, name):
        report = _golden_report(name)
        text = dumps_report(*report)
        assert text == _oracle_text(report)
        assert document(*report) == json.loads(text)
        assert dumps_json(document(*report)) == text
        _assert_flat_match_the_oracle(report)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 5, 256]), st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3).map(tuple),
           st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
    @example(1, (2, 3), 0, True, 1)
    @example(256, (3, 2), 1, True, 2)
    def test_states_mixtures_and_reports_match_the_oracle(self, n_terms, dims, seed, zeros, depth):
        h = _walk_state(n_terms, dims, seed, zeros)
        mixture = MixedHistory(((0.25, normalize(h)), (0.75, normalize((0.5 - 1j) * h))))
        rng = np.random.default_rng(h.n_terms)
        t = min(h.n_terms, 64)
        matrix = _signed_zeros(rng, rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t)))
        consistency = ConsistencyReport(False, matrix, math.nan, 1e-9)
        artifacts = {"state": h, "mixture": mixture, "consistency": consistency, "norm": -0.0}
        for _ in range(depth - 1):
            artifacts = {"nested": artifacts, "list": [h, mixture]}
        report = ("walk", artifacts, ("a note",))
        assert dumps_report(*report) == _oracle_text(report)
        _assert_flat_match_the_oracle(report)

    def test_values_that_are_not_finite_match_the_oracle(self):
        grid = TimeGrid((0.0, 1.0), (2, 3))
        rows = np.ones((2, 13), dtype=complex)
        rows[1, 5] = complex(math.nan, -math.inf)
        h = HistoryState._from_rows(grid, [1.0, complex(-0.0, 2.0)], rows, distinct=True)
        matrix = np.array([[1.0, math.nan], [math.inf, -0.0]], dtype=complex)
        # a complex scalar and matrix with every part NaN, +-inf or -0.0, two levels down
        parts = [math.nan, math.inf, -math.inf, -0.0, 0.5]
        deep = [complex(math.nan, -0.0), {"matrix": np.array([[complex(re, im) for im in parts] for re in parts])}]
        report = ("nan", {"state": h, "matrix": matrix, "pair": complex(math.inf, 0.5),
                          "consistency": ConsistencyReport(True, matrix.real, math.nan, 0.0),
                          "nested": {"deep": deep}}, ())
        text = dumps_report(*report)
        assert text == _oracle_text(report)
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text
        _assert_flat_match_the_oracle(report)

    def test_a_repeated_object_is_written_once(self, monkeypatch):
        result = chained_bell(40, *tsirelson_settings(), maximally_mixed(2))
        block = result.block_reports[0]
        assert all(r is block for r in result.block_reports)
        written = []
        real = serialize._text
        monkeypatch.setattr(serialize, "_text", lambda obj, indent: written.append(obj) or real(obj, indent))
        text = dumps_report("chained", result)
        assert sum(obj is block for obj in written) == 1
        assert text == _oracle_text(("chained", result, ()))

    def test_no_template_above_the_leaf_bound_is_kept(self):
        grid = TimeGrid.regular(2)
        rng = np.random.default_rng(5)
        big = [
            # 2 labels and 256 terms of 18 floats
            HistoryState._from_rows(grid, rng.normal(size=256) + 0j, rng.normal(size=(256, 8)) + 0j,
                                    distinct=True),
            rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)),
            rng.normal(size=(256, 256)),
            rng.normal(size=serialize._CACHED_LEAVES + 1).tolist(),
        ]
        small = HistoryState._from_rows(grid, [1.0], np.ones((1, 8)), distinct=True)
        serialize._kept.cache_clear()
        for obj in big:
            report = ("sizes", {"obj": obj}, ())
            assert dumps_report(*report) == _oracle_text(report)
        assert serialize._kept.cache_info().currsize == 0
        assert dumps_report("sizes", {"obj": small}) == _oracle_text(("sizes", {"obj": small}, ()))
        assert serialize._kept.cache_info().currsize == 1


# Strings with quotes, backslashes, control characters and non-ASCII text.
_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from(['', '"', "\\", "\x00\x1f\t\n", "é☃\U0001f600", "%", "%r", "%%s", "a,b", "\r"]))
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1.7976931348623157e308]),
    st.floats().map(np.float64),
)
_SCALARS = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _TEXT)


def _nested(leaves: list, shape: tuple) -> list:
    if len(shape) == 1:
        return leaves
    size = len(leaves) // shape[0]
    return [_nested(leaves[i * size:(i + 1) * size], shape[1:]) for i in range(shape[0])]


@st.composite
def _blocks(draw):
    """Nested float lists of depth 3 or 4, (n, m, 2) pair matrices among
    them: uniform, or spoiled by one np.float64, NaN, infinite, int or bool
    leaf, by tuple rows, or by an innermost row that is shorter or empty."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
                           st.lists(st.integers(1, 3), min_size=3, max_size=4).map(tuple)))
    size = math.prod(shape)
    leaves = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size))
    spoil = draw(st.sampled_from(["none", "leaf", "tuples", "ragged"]))
    if spoil == "leaf":
        leaves[draw(st.integers(0, size - 1))] = draw(st.sampled_from(
            [np.float64(0.5), math.nan, math.inf, -math.inf, 7, True, False]))
    block = _nested(leaves, shape)
    rows = [block]
    for _ in shape[:-2]:
        rows = list(itertools.chain.from_iterable(rows))
    if spoil == "tuples":
        for i in draw(st.sets(st.integers(0, len(rows) - 1))):
            rows[i][:] = [tuple(r) for r in rows[i]]
    elif spoil == "ragged":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([[], [1.0], [1.0] * 5]))
    return block


_JSON_DOCS = st.recursive(
    st.one_of(
        _SCALARS,
        st.lists(_FLOATS, max_size=6),
        st.lists(_TEXT, max_size=4),
        # float rows of one length, and floats mixed with ints, bools and None
        st.integers(0, 3).flatmap(lambda n: st.lists(st.lists(_FLOATS, min_size=n, max_size=n), max_size=4)),
        st.lists(st.tuples(st.floats(), st.floats()), max_size=4),
        st.lists(st.one_of(_FLOATS, st.integers(), st.booleans(), st.none()), max_size=6),
        _blocks(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


def _json_oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _walk_text(doc) -> str:
    """The one-walk writer's text of a plain document, plus a newline."""
    return serialize._text(doc, "\n") + "\n"


class TestJsonWriter:
    """The walk writes a plain document as ``json.dumps`` does: str keys,
    mixed lists, tuples, int subclasses, np.float64, NaN, infinities and
    ragged blocks included."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        assert _walk_text(doc) == _json_oracle(doc)

    def test_report_documents_match_json_dumps(self):
        firsts, seconds = tsirelson_settings()
        report = s_lgi(maximally_mixed(2), firsts, seconds)
        table = {"".join(k): 1 / 16 for k in itertools.product("+-", repeat=4)}
        docs = [
            to_jsonable(run_scenario("temporal-ghz")),
            document("lgi", to_jsonable(report)),
            document("abl", {"distribution": OutcomeDistribution(tuple("WXYZ"), table)}),
        ]
        for doc in docs:
            assert _walk_text(doc) == dumps_json(doc) == _json_oracle(doc)

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 2, 2), (30, 50, 2)])
    def test_one_block_shape_at_two_indents(self, rng, shape):
        # the same block at four depths, written twice: a template kept for
        # one indent must not be reused at another
        block = rng.normal(size=shape).tolist()
        doc = {"a": block, "b": {"c": [block, {"d": block}]}, "e": [[block]]}
        assert _walk_text(doc) == _json_oracle(doc)
        assert _walk_text(doc) == _json_oracle(doc)

    def test_uniform_blocks(self):
        # uniform float blocks, and lists that are ragged, empty, not finite or
        # not exact floats, each at the top and one level down
        for items in ([[1.0, 2.0], (3.0, 4.0)], ([[0.5]],), [[1.0], [2.0, 3.0]],
                      [[1.0], [2.0, 3.0], [4.0, 5.0, 6.0]], [[], []], [[1.0], 2.0], [1.0, math.nan],
                      [[math.inf]], [np.float64(1.0)], [1.0, 1], [True], [[1.0], "a"]):
            for doc in (items, {"k": items}):
                assert _walk_text(doc) == dumps_json(doc) == _json_oracle(doc)

    @pytest.mark.parametrize("depth", [15, 16, 17, 40])
    def test_deep_blocks(self, depth):
        doc = [0.5, 1.5]
        for _ in range(depth - 1):
            doc = [doc, doc]
            if len(json.dumps(doc)) > 1 << 16:
                doc = [doc[0]]
        assert _walk_text(doc) == _json_oracle(doc)

    def test_keys_json_converts_go_to_json(self):
        doc = {"a": {2: [1.5], 1: None, 0.5: "x"}, "b": {True: 1}}
        assert dumps_json(doc) == _json_oracle(doc)

    def test_deep_and_circular_documents_go_to_json(self):
        deep = [1.0]
        for _ in range(600):
            deep = [deep]
        assert dumps_json(deep) == _json_oracle(deep)
        loop = {"a": []}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            dumps_json(loop)

    @pytest.mark.parametrize("doc", [{"a": [1.0, object()]}, [np.array([1.0])], {"k": {1j}}])
    def test_not_json_raises_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            _json_oracle(doc)
        with pytest.raises(TypeError, match=str(expected.value)):
            dumps_json(doc)

    def test_matrix_document_matches_per_entry_pairs(self, rng):
        special = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.nan, math.inf),
                            complex(-math.inf, 5e-324)])
        arrays = [
            special,
            rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)),
            rng.normal(size=5),
            np.arange(6).reshape(2, 3),
            special.astype(np.complex64).reshape(2, 2),
        ]
        for a in arrays:
            doc = to_jsonable(a)
            if np.iscomplexobj(a):
                oracle = ([complex_pair(z) for z in a] if a.ndim == 1
                          else [[complex_pair(z) for z in row] for row in a])
            else:
                oracle = [float(x) for x in a.ravel()] if a.ndim == 1 else [[float(x) for x in row] for row in a]
            assert json.dumps(doc) == json.dumps(oracle)
            assert dumps_report("a", {"a": a}) == _json_oracle({"artifacts": {"a": oracle}, "name": "a", "notes": []})
            leaves = doc if a.ndim == 1 else list(itertools.chain.from_iterable(doc))
            if np.iscomplexobj(a):
                leaves = list(itertools.chain.from_iterable(leaves))
            assert all(type(x) is float for x in leaves)
        with pytest.raises(ShapeError):
            to_jsonable(np.zeros((2, 2, 2), dtype=complex))


def _csv_writer_rows(table) -> str:
    """The table's rows written by ``csv.writer``, sorted by outcome."""
    buf = io.StringIO()
    csv.writer(buf).writerows([["outcome", "probability"]] + [
        [outcome, format_number(table[outcome])] for outcome in sorted(table)])
    return buf.getvalue()


class TestCSV:
    def test_format_number(self):
        assert format_number(0.5) == "0.5"
        assert format_number(1.0 / 3.0) == "0.333333333333"

    def test_dumps_csv_flattens(self):
        doc = document("t", {"x": {"b": 2.0, "a": [1.0, True]}}, ())
        rows = list(csv.reader(io.StringIO(dumps_csv(doc))))
        assert rows[0] == ["key", "value"]
        table = dict((k, v) for k, v in rows[1:])
        assert table["artifacts.x.a[0]"] == "1"
        assert table["artifacts.x.a[1]"] == "true"
        assert table["artifacts.x.b"] == "2"

    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCS)
    def test_flat_writers_match_the_entry_by_entry_oracle(self, doc):
        # a document's rows are those of its JSON text, where a tuple is a list
        report = {"name": "t", "artifacts": doc, "notes": ["n, \"quoted\""]}
        plain = json.loads(json.dumps(report))
        for d in (report, plain):
            assert dumps_csv(d) == serialize_oracle.dumps_csv(plain)
            assert dumps_pretty(d) == serialize_oracle.dumps_pretty(plain)

    @pytest.mark.parametrize("label", ["X", "bloch(0.1,0.3)"])
    def test_flat_writers_of_an_outcome_table(self, rng, label):
        strings = ["".join(s) for s in itertools.product("+-", repeat=10)]
        w = rng.exponential(size=len(strings))
        dist = OutcomeDistribution((label,) * 10, dict(zip(strings, w / w.sum())))
        doc = document("abl", {"distribution": dist, "slot": 3})
        assert dumps_csv(doc) == serialize_oracle.dumps_csv(doc)
        assert dumps_pretty(doc) == serialize_oracle.dumps_pretty(doc)

    def test_flat_writers_of_objects_under_keys_that_need_quotes(self, rng):
        h = HistoryState._from_rows(TimeGrid.regular(2), [1.0, -0.5j], rng.normal(size=(2, 8)) + 0j, distinct=True)
        artifacts = {'a,b': rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)), 'q"': rng.normal(size=4),
                     "z\r": complex(-0.0, 2.5), "s,t": (h, np.float64(0.25), np.int64(3), np.bool_(True))}
        report = ("objects", artifacts, ())
        _assert_flat_match_the_oracle(report)
        assert '"artifacts.a,b[1][2][1]",' in dumps_csv(serialize._report(*report))

    def test_distribution_csv(self):
        d = OutcomeDistribution(("X", "Z"), {"++": 0.5, "--": 0.5, "+-": 0.0, "-+": 0.0})
        rows = list(csv.reader(io.StringIO(distribution_csv(d))))
        assert rows[0] == ["outcome", "probability"]
        assert ["++", "0.5"] in rows

    def test_distribution_csv_matches_a_csv_writer(self, rng):
        # probabilities that round at 12 digits, one of them an np.float64
        p = [0.1, np.float64(0.2), 1.0 / 3.0]
        table = {"-++": p[0], "+--": p[1], "---": p[2], "+-+": 1.0 - sum(p)}
        dist = OutcomeDistribution(("X", "Y", "Z"), table)
        assert distribution_csv(dist) == _csv_writer_rows(table)
        # a random 10-slot table a caller built
        outcomes = ["".join(s) for s in itertools.product("+-", repeat=10)]
        w = rng.exponential(size=len(outcomes))
        w[rng.choice(len(w), 50, replace=False)] = 0.0
        table = dict(zip(outcomes, (w / w.sum()).tolist()))
        assert distribution_csv(OutcomeDistribution(tuple("S" * 10), table)) == _csv_writer_rows(table)
        # an empty key
        assert distribution_csv(OutcomeDistribution((), {"": 1.0})) == _csv_writer_rows({"": 1.0})

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.floats(0.0, 1e300), min_size=2 ** n, max_size=2 ** n)))
    def test_distribution_csv_prints_every_float_as_format_number(self, weights):
        n = len(weights).bit_length() - 1
        strings = tuple("".join(s) for s in itertools.product("+-", repeat=n))
        assume(float(np.cumsum(weights)[-1]) > twostate.ZERO_WEIGHT_TOL)
        dist = twostate._normalized(strings, np.array(weights), tuple("S" * n))
        assert distribution_csv(dist) == _csv_writer_rows(dist.table)

    def test_trace_csv_columns(self):
        res = optimize_settings("s_lgi")
        rows = list(csv.reader(io.StringIO(trace_csv(res))))
        assert rows[0][0] == "evaluation"
        assert rows[0][-1] == "value"
        assert len(rows) >= 2

    def test_trace_csv_matches_a_csv_writer(self, rng):
        # a many-row trace whose numbers round at 12 digits, some not finite
        angles = [tuple(rng.normal(size=4).tolist()) for _ in range(30)]
        angles[3] = (math.nan, math.inf, -math.inf, -0.0)
        trace = tuple((np.int64(n) if n % 2 else n, a, float(rng.normal()) / 3.0) for n, a in enumerate(angles, 1))
        res = dataclasses.replace(optimize_settings("monogamy_sum"), angles=angles[-1], trace=trace)
        buf = io.StringIO()
        csv.writer(buf).writerows([["evaluation", "theta_0", "phi_0", "theta_1", "phi_1", "value"]] + [
            [n, *map(format_number, a), format_number(v)] for n, a, v in trace])
        assert trace_csv(res) == buf.getvalue()

    def test_pretty_output_mentions_notes(self):
        res = run_scenario("two-time-hab")
        text = dumps_pretty(to_jsonable(res))
        assert "postselection_probability" in text
        assert "notes" in text or "note" in text.lower()


_ROW_KINDS = ("pure", "mixed", "post", "gapped")


def _kernel_distribution(rng, kind: str, n: int) -> OutcomeDistribution:
    """A table from the chain kernel on n measured slots: from a ket (pure),
    from the maximally mixed state (mixed), post-selected (post), or
    post-selected with an unmeasured slot inserted, as in ``abl-post-gap``
    (gapped)."""
    slots = list(MeasurementSetting.stack([tuple(rng.uniform(0.0, np.pi, 2)) for _ in range(n)]))
    if kind == "gapped":
        slots.insert(int(rng.integers(n + 1)), None)
    unitaries = [random_unitary(rng, 2) for _ in range(len(slots) + 1)]
    if kind == "mixed":
        return mixed_sequence_distribution(maximally_mixed(2), slots, unitaries)
    ket, post = (random_unitary(rng, 2)[:, k] for k in range(2))
    return sequence_distribution(ket, slots, unitaries, None if kind == "pure" else post)


def _plain(dist: OutcomeDistribution) -> dict:
    """The distribution's document with its table a plain dict in sorted order."""
    return {"settings": list(dist.settings), "table": {k: dist.table[k] for k in sorted(dist.table)}}


class TestKernelTableRoute:
    """Every outcome table, from the chain kernel or from a caller, is written
    from its read-only, sorted ``_Table`` with the bytes of the general
    writers."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", _ROW_KINDS)
    def test_matches_the_general_writers(self, kind, n):
        dist = _kernel_distribution(np.random.default_rng([n, _ROW_KINDS.index(kind)]), kind, n)
        assert type(dist.table) is twostate._Table
        doc = document("abl", {"distribution": dist})
        plain = document("abl", {"distribution": _plain(dist)})
        assert type(plain["artifacts"]["distribution"]["table"]) is dict
        assert dumps_report("abl", {"distribution": dist}) == _json_oracle(plain)
        assert distribution_csv(dist) == _csv_writer_rows(dist.table)
        assert dumps_pretty(doc) == dumps_pretty(plain)

    @pytest.mark.parametrize("n", range(13))
    def test_caller_built_tables_match_the_general_writers(self, n):
        rng = np.random.default_rng([n, 31])
        strings = ["".join(s) for s in itertools.product("+-", repeat=n)]
        keys = [strings[i] for i in rng.permutation(len(strings))[:rng.integers(1, len(strings) + 1)]]
        w = rng.exponential(size=len(keys))
        w[rng.random(len(keys)) < 0.2] = 0.0
        w[0] += 1.0
        table = dict(zip(keys, w / w.sum()))
        assert {type(v) for v in table.values()} == {np.float64}
        dist = OutcomeDistribution(tuple("S" * n), table)
        assert type(dist.table) is twostate._Table and list(dist.table) == sorted(table)
        assert {type(v) for v in dist.table.values()} == {float}
        doc = document("abl", {"distribution": dist})
        plain = document("abl", {"distribution": {"settings": ["S"] * n, "table": table}})
        assert dumps_report("abl", {"distribution": dist}) == _json_oracle(plain) == _json_oracle(doc)
        assert distribution_csv(dist) == _csv_writer_rows(table)
        assert dumps_pretty(doc) == dumps_pretty(plain)

    @pytest.mark.parametrize("change", [
        # the operator forms go through the type's slots, as t[k] = v does
        lambda t: operator.setitem(t, "+-+", 0),
        lambda t: operator.delitem(t, "+-+"),
        lambda t: operator.ior(t, {"---": True}),
        lambda t: t.clear(),
        lambda t: t.pop("++-"),
        lambda t: t.popitem(),
        lambda t: t.setdefault("?", 0.25),
        lambda t: t.update({"+++": -0.0}),
    ])
    def test_every_mutator_raises(self, rng, change):
        dist = _kernel_distribution(rng, "pure", 3)
        before = dict(dist.table)
        text = dumps_json(document("abl", {"distribution": dist}))
        with pytest.raises(TypeError, match="^an outcome table is read-only$"):
            change(dist.table)
        assert dist.table == before and list(dist.table) == list(before)
        assert dumps_json(document("abl", {"distribution": dist})) == text

    @pytest.mark.parametrize("round_trip", [
        lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy,
    ])
    def test_round_trips_keep_the_table(self, rng, round_trip):
        dist = _kernel_distribution(rng, "post", 4)
        table = round_trip(dist.table)
        assert type(table) is twostate._Table and list(table.items()) == list(dist.table.items())
        got = round_trip(dist)
        assert type(got.table) is twostate._Table
        assert dumps_json(document("abl", {"distribution": got})) == dumps_json(
            document("abl", {"distribution": dist}))
        assert distribution_csv(got) == distribution_csv(dist)
        with pytest.raises(TypeError, match="read-only"):
            table["++++"] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_are_rejected(self, bad):
        with pytest.raises(ValueError, match="^total weight must be finite$"):
            twostate._normalized(("+", "-"), np.array([bad, 1.0]), ("X",))


class TestLoadDocument:
    def test_reads_json_object(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text('{"pre": "0"}')
        assert load_document(str(p)) == {"pre": "0"}

    def test_parse_error_is_line_anchored(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "pre": ,\n}')
        with pytest.raises(SpecError, match=r"broken\.json:2:\d+:"):
            load_document(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="nope.json"):
            load_document(str(tmp_path / "nope.json"))

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(SpecError, match="top level"):
            load_document(str(p))


class TestFragmentParsers:
    def test_named_state(self):
        assert np.allclose(state_from_document("0"), qubit_ket("0"))
        assert np.allclose(state_from_document("i+"), qubit_ket("i+"))

    def test_vector_state(self):
        v = state_from_document([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(v, [1.0, 1.0j])

    def test_bad_state(self):
        with pytest.raises(SpecError, match="unknown named state"):
            state_from_document("psi")
        with pytest.raises(SpecError):
            state_from_document([[1.0, 0.0, 3.0]])

    def test_named_unitary(self):
        assert np.allclose(unitary_from_document("H") @ qubit_ket("0"), qubit_ket("+"))
        with pytest.raises(SpecError, match="known:"):
            unitary_from_document("Q")

    def test_matrix_unitary(self):
        doc = matrix_document(pauli("Y"))
        assert np.allclose(unitary_from_document(doc), pauli("Y"))

    def test_setting_forms(self):
        assert setting_from_document("x").label == "X"
        s = setting_from_document({"theta": math.pi / 2, "phi": 0.0, "label": "mine"})
        assert s.label == "mine"
        assert np.allclose(s.observable, pauli("X"), atol=1e-12)
        with pytest.raises(SpecError):
            setting_from_document("Q")
        with pytest.raises(SpecError):
            setting_from_document({"theta": "up"})

    def test_slot_operator_forms(self):
        assert np.allclose(slot_operator_from_document("I"), identity(2))
        assert np.allclose(
            slot_operator_from_document("z+"), projector(qubit_ket("0"))
        )
        with pytest.raises(SpecError, match="known: I,"):
            slot_operator_from_document("w+")


class TestHistoryFromDocument:
    def test_minimal_single_term(self):
        doc = {"terms": [{"slots": ["x+", "z+"]}]}
        h, b = history_from_document(doc)
        assert h.grid.n_slots == 2
        assert np.allclose(b.unitaries[0], identity(2))

    def test_roundtrip_preserves_state(self):
        g = TimeGrid.regular(3)
        original = normalize(
            HistoryState.from_slots(
                g, [projector(qubit_ket("0"))] * 3, 1.0 / math.sqrt(2)
            )
            + HistoryState.from_slots(
                g, [projector(qubit_ket("1"))] * 3, 1.0 / math.sqrt(2)
            )
        )
        doc = {"history": to_jsonable(original)}
        parsed, bridging = history_from_document(doc)
        assert abs(hs_inner(normalize(parsed), original)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_repeated_strings_merge_as_the_sum_of_terms(self):
        term_docs = [
            {"coefficient": [0.5, 0.0], "slots": ["z+", "x+"]},
            {"coefficient": [0.25, 0.25], "slots": ["z-", "x-"]},
            {"coefficient": [0.5, -0.125], "slots": ["z+", "x+"]},
            {"coefficient": [0.0, 1.0], "slots": ["y+", "I"]},
            {"coefficient": [-0.75, 0.0], "slots": ["z-", "x-"]},
            {"slots": ["y+", "I"]},
        ]
        parsed, _ = history_from_document({"terms": term_docs})
        g = TimeGrid.regular(2)
        states = [
            HistoryState.from_slots(
                g, [slot_operator_from_document(s) for s in t["slots"]],
                complex(*t.get("coefficient", [1.0, 0.0])),
            )
            for t in term_docs
        ]
        summed = states[0]
        for state in states[1:]:
            summed = summed + state
        assert parsed.n_terms == summed.n_terms == 3
        for (c, eh), (c0, eh0) in zip(parsed.terms, summed.terms):
            assert c == c0
            assert all(np.array_equal(a, b) for a, b in zip(eh.slots, eh0.slots))

    def test_bridging_parsed(self):
        doc = {
            "terms": [{"slots": ["z+", "z+"]}],
            "bridging": {"unitaries": ["X"]},
        }
        _, b = history_from_document(doc)
        assert np.allclose(b.unitaries[0], pauli("X"))

    def test_errors(self):
        with pytest.raises(SpecError, match="terms"):
            history_from_document({})
        with pytest.raises(SpecError, match="slots"):
            history_from_document({"terms": [{}]})
        with pytest.raises(SpecError, match="bridging: expected a list of length 1"):
            history_from_document(
                {"terms": [{"slots": ["z+", "z+"]}], "bridging": {"unitaries": []}}
            )
        with pytest.raises(SpecError, match="coefficient"):
            history_from_document({"terms": [{"slots": ["z+"], "coefficient": 5}]})

    def test_size_bounds(self):
        term = {"slots": ["z+", "x-"]}
        parsed, _ = history_from_document({"terms": [term] * MAX_HISTORY_TERMS})
        assert parsed.n_terms == 1
        with pytest.raises(SpecError, match=f"{MAX_HISTORY_TERMS + 1} terms"):
            history_from_document({"terms": [term] * (MAX_HISTORY_TERMS + 1)})
        big = [[[0.0, 0.0]] * (MAX_SLOT_DIM + 1)] * (MAX_SLOT_DIM + 1)
        with pytest.raises(SpecError, match=f"slot dimension {MAX_SLOT_DIM + 1}"):
            history_from_document({"terms": [{"slots": [big, big]}]})
        grid = {"labels": [0.0], "slot_dims": [MAX_SLOT_DIM + 1]}
        with pytest.raises(SpecError, match=f"at most {MAX_SLOT_DIM}"):
            history_from_document({"grid": grid, "terms": [term]})


def _history_outcome(doc: dict) -> tuple | str:
    """The grid and the coefficient and row bytes that
    ``history_from_document`` reads from ``doc``, or its error."""
    try:
        h, _ = history_from_document(doc)
    except SpecError as exc:
        return str(exc)
    return h.grid, h._coefs.tobytes(), h._rows.tobytes()


def _per_entry_outcome(doc: dict) -> tuple | str:
    """``_history_outcome`` with the stacked reads of every term's slots
    (depth 4) and coefficients (depth 1) refused, so each slot column and
    each coefficient takes its own read."""

    def refused(doc, what, ndim):
        if ndim in (1, 4):
            raise SpecError(what)
        return real(doc, what, ndim)

    real = serialize._pairs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_pairs", refused)
        return _history_outcome(doc)


class TestStackedSpecReading:
    """Each list field of a spec is read as one array and checked once."""

    def test_weight_spec_matches_terms_built_by_hand(self, rng):
        names = ["z+", "z-", "x+", "x-", "y+", "y-", "I"]
        term_docs = []
        for t in range(24):
            slots = []
            for k in range(3):
                if rng.random() < 0.4:
                    slots.append(str(rng.choice(names)))
                else:
                    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    slots.append(matrix_document(m))
            term_docs.append({"coefficient": [float(rng.normal()), float(rng.normal())], "slots": slots})
        # repeated strings merge, and a pair of them cancels
        term_docs += [dict(term_docs[3]), {"coefficient": [1.0, 0.0], "slots": ["z+", "x-", "I"]},
                      {"coefficient": [-1.0, 0.0], "slots": ["z+", "x-", "I"]}]
        parsed, _ = history_from_document({"terms": term_docs})
        grid = TimeGrid.regular(3)
        by_hand = HistoryState(tuple(
            (complex(*t["coefficient"]), ElementaryHistory(grid, tuple(
                slot_operator_from_document(s) if isinstance(s, str) else matrix_from_document(s)
                for s in t["slots"])))
            for t in term_docs))
        assert parsed.n_terms == by_hand.n_terms == 24
        assert [c for c, _ in parsed.terms] == [c for c, _ in by_hand.terms]
        for (_, eh), (_, eh0) in zip(parsed.terms, by_hand.terms):
            assert eh.grid == eh0.grid
            assert [op.tobytes() for op in eh.slots] == [op.tobytes() for op in eh0.slots]
            assert all(not op.flags.writeable for op in eh.slots)
        assert parsed._rows.tobytes() == by_hand._rows.tobytes()
        assert not parsed._rows.flags.writeable

    @pytest.mark.parametrize("grid", [None, {"labels": [-1.0, 0.5, 2.0], "slot_dims": [3, 3, 3]}])
    def test_explicit_matrix_spec_takes_one_read_per_field(self, rng, monkeypatch, grid):
        from qhist import serialize

        strings = [[matrix_document(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(3)]
                   for _ in range(9)]
        term_docs = [{"coefficient": [float(rng.normal()), -0.0], "slots": ops} for ops in strings]
        term_docs[4]["coefficient"] = [-0.0, 1.5]
        # repeated strings merge: one with a default coefficient into term 5, one into term 2
        term_docs += [{"slots": strings[5]}, {"coefficient": [0.25, 0.5], "slots": strings[2]}]
        calls = []
        real = serialize._pairs
        monkeypatch.setattr(serialize, "_pairs", lambda *a: calls.append(np.shape(a[0])[:2]) or real(*a))
        parsed, _ = history_from_document({"grid": grid, "terms": term_docs})
        assert calls == [(11, 3), (11, 2)]
        monkeypatch.setattr(serialize, "_pairs", real)
        # the per-entry reads give the same arrays, zero signs included
        doc = {"grid": grid, "terms": term_docs}
        assert _history_outcome(doc) == _per_entry_outcome(doc)
        assert parsed.n_terms == 9
        by_hand = HistoryState(tuple(
            (complex(*t.get("coefficient", [1.0, 0.0])),
             ElementaryHistory(parsed.grid, tuple(map(matrix_from_document, t["slots"]))))
            for t in term_docs))
        assert parsed._coefs.tobytes() == by_hand._coefs.tobytes()
        assert parsed._rows.tobytes() == by_hand._rows.tobytes()

    @pytest.mark.parametrize("spec", [
        [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "z+"]}],
        [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, {"slots": [[[[1, 0]]]]}],
        [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "coefficient": [1, True]}],
        [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "coefficient": (1, 0)}],
        [{"slots": [[[[1, 0]]]]}],
        [["not", "an", "object"]],
        # slot dimensions 2 and 3, bridged by an isometry, and a 2 x 3 operator
        {"terms": [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0], [0, 0]]] * 3]}],
         "bridging": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]]},
        [{"slots": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]]}],
        # integer parts, a default coefficient and an unreadable one
        [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "coefficient": [2, -1]},
         {"slots": [[[[0, 1], [0, 0]], [[0, 0], [0, -1]]]]}],
        [{"slots": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "coefficient": [1, "0"]}],
    ])
    def test_the_stacked_read_changes_no_outcome(self, spec):
        doc = spec if isinstance(spec, dict) else {"terms": spec}
        assert _history_outcome(doc) == _per_entry_outcome(doc)

    def test_several_bad_terms_name_the_first(self):
        # read together, term 2's short slot list fails first; read term by
        # term, as before stacking, term 0's coefficient does
        terms = [{"slots": ["z+", "x+"], "coefficient": [1, "a"]}, {"slots": ["z+", "Q"]}, {"slots": ["z+"]}]
        with pytest.raises(SpecError, match=r"^history: term 0 coefficient\[1\]: "):
            history_from_document({"terms": terms})
        terms[0]["coefficient"] = [1, 0]
        with pytest.raises(SpecError, match=r"^history: term 1 slots\[1\]: unknown named slot 'Q'"):
            history_from_document({"terms": terms})

    def test_settings_take_one_check(self, monkeypatch):
        calls = {"bloch_observables": 0, "dichotomic_projectors": 0}
        for name in calls:
            real = getattr(twostate, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(twostate, name, counted)
        bloch = [{"theta": 0.1 * k, "phi": 0.3 * k} for k in range(15)]
        parsed = experiment_from_document({"pre": "0", "slots": bloch + ["X", None, "z"]})
        assert len(parsed["slots"]) == 18
        assert calls == {"bloch_observables": 1, "dichotomic_projectors": 1}
        calls.update(bloch_observables=0, dichotomic_projectors=0)
        _, pairs, _, _ = bell_spec_from_document({"a": bloch[:2], "b": ["X", bloch[2]], "c": bloch[3:5]},
                                                 "monogamy")
        assert [s.label for pair in pairs for s in pair] == ["bloch(0,0)", "bloch(0.1,0.3)", "X",
                                                             "bloch(0.2,0.6)", "bloch(0.3,0.9)",
                                                             "bloch(0.4,1.2)"]
        assert calls == {"bloch_observables": 1, "dichotomic_projectors": 1}

    def test_unitary_row_takes_one_read(self, monkeypatch):
        from qhist import serialize

        calls = []
        real = serialize._pairs_to_array
        monkeypatch.setattr(serialize, "_pairs_to_array", lambda *a: calls.append(a[1]) or real(*a))
        row = [matrix_document(pauli(n)) for n in "XYZXZ"]
        parsed = experiment_from_document({"pre": "0", "slots": ["X"] * 4,
                                           "unitaries": row[:2] + ["H"] + row[2:4]})
        assert calls == ["unitaries[0]"]
        assert [u.tobytes() for u in parsed["unitaries"]] == [
            pauli(n).tobytes() for n in "XY"] + [unitary_from_document("H").tobytes()] + [
            pauli(n).tobytes() for n in "ZX"]

    @pytest.mark.parametrize("position", range(4))
    def test_bad_unitary_entry_named_at_each_position(self, position):
        row = ["I"] * 4
        row[position] = [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]
        with pytest.raises(SpecError, match=rf"^unitaries\[{position}\]: expected a matrix"):
            experiment_from_document({"pre": "0", "slots": ["X", None, "Z"], "unitaries": row})
        row[position] = "Q"
        with pytest.raises(SpecError, match=rf"^unitaries\[{position}\]: unknown named unitary 'Q'"):
            experiment_from_document({"pre": "0", "slots": ["X", None, "Z"], "unitaries": row})


class TestExperimentFromDocument:
    def test_minimal(self):
        parsed = experiment_from_document({"pre": "0", "slots": ["X", "X"]})
        assert np.allclose(parsed["pre"], qubit_ket("0"))
        assert parsed["post"] is None
        assert len(parsed["slots"]) == 2
        assert parsed["slots"][0].label == "X"

    def test_mixed_initial(self):
        parsed = experiment_from_document({"initial": "mixed", "slots": ["X"]})
        assert parsed["initial"] == "mixed"
        assert parsed["pre"] is None

    def test_null_slot_means_unmeasured(self):
        parsed = experiment_from_document({"pre": "0", "slots": ["X", None, "Z"]})
        assert parsed["slots"][1] is None

    def test_unitaries_parsed(self):
        parsed = experiment_from_document(
            {"pre": "0", "slots": ["Z"], "unitaries": ["H", "H"]}
        )
        assert len(parsed["unitaries"]) == 2

    def test_errors(self):
        with pytest.raises(SpecError, match="pre"):
            experiment_from_document({"slots": ["X"]})
        with pytest.raises(SpecError, match="slots"):
            experiment_from_document({"pre": "0"})
        with pytest.raises(SpecError):
            experiment_from_document(
                {"pre": "0", "slots": ["X"], "unitaries": ["H"]}
            )
