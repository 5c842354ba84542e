import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from millrank import (
    EmptyCoalitionError,
    MillrankError,
    MissingCoalitionError,
    OutOfUniverseError,
    RankingSyntaxError,
    parse_ranking,
    parse_ranking_json,
    render_ranking,
    sample_ranking,
)
from millrank.cli import main
from helpers import rk

EXAMPLE_DOC = """\
# three firms, two outcome levels
universe: 1 2 3
class: {1,2,3} {1,2} {1,3}
class: {2,3} {1} {2} {3}
"""


class TestParse:
    def test_example_document(self):
        assert parse_ranking(EXAMPLE_DOC) == rk("123 12 13 / rest")

    def test_missing_universe_line(self):
        with pytest.raises(RankingSyntaxError):
            parse_ranking("class: {1}\n")

    def test_out_of_universe_member(self):
        doc = "universe: 1 2 3\nclass: {1,4}\nclass: {1} {2} {3} {1,2} {1,3} {2,3} {1,2,3}\n"
        with pytest.raises(OutOfUniverseError):
            parse_ranking(doc)

    def test_whitespace_insensitive(self):
        doc = "universe:  a  b\nclass:   { a , b }\nclass: {a}  {b}\n"
        parsed = parse_ranking(doc)
        assert parsed.universe.names == ("a", "b")
        assert parsed.classes == ((3,), (1, 2))

    def test_incomplete_partition(self):
        with pytest.raises(MissingCoalitionError):
            parse_ranking("universe: 1 2\nclass: {1} {2}\n")

    def test_stray_token(self):
        with pytest.raises(RankingSyntaxError) as err:
            parse_ranking("universe: 1 2\nclass: {1} x {2} {1,2}\n")
        assert err.value.line == 2

    def test_empty_coalition(self):
        with pytest.raises(RankingSyntaxError):
            parse_ranking("universe: 1 2\nclass: {} {1} {2} {1,2}\n")

    def test_unknown_directive(self):
        with pytest.raises(RankingSyntaxError):
            parse_ranking("universe: 1\nranking: {1}\n")

    def test_duplicate_universe(self):
        with pytest.raises(RankingSyntaxError):
            parse_ranking("universe: 1\nuniverse: 1\nclass: {1}\n")


class TestRender:
    def test_example_round_trip(self):
        ranking = rk("123 12 13 / rest")
        assert parse_ranking(render_ranking(ranking)) == ranking

    def test_canonical_layout(self):
        text = render_ranking(rk("12 / 1 / rest", n=2))
        assert text == "universe: 1 2\nclass: {1,2}\nclass: {1}\nclass: {2}\n"


class TestJsonMirror:
    def test_round_trip(self):
        document = {
            "universe": ["1", "2", "3"],
            "classes": [[["1", "2", "3"], ["1", "2"], ["1", "3"]],
                        [["2", "3"], ["1"], ["2"], ["3"]]],
        }
        assert parse_ranking_json(document) == rk("123 12 13 / rest")

    def test_accepts_json_strings(self):
        text = '{"universe": ["1"], "classes": [[["1"]]]}'
        assert parse_ranking_json(text).universe.n == 1

    def test_rejects_malformed(self):
        with pytest.raises(RankingSyntaxError):
            parse_ranking_json("[1, 2]")
        with pytest.raises(RankingSyntaxError):
            parse_ranking_json("{nope")

    @pytest.mark.parametrize(
        "document",
        [
            {"universe": ["1", "2"], "classes": 5},
            {"universe": "ab", "classes": [[["a", "b"]], [["a"]], [["b"]]]},
            {"universe": [1, 2], "classes": [[[1, 2]], [[1]], [[2]]]},
            {"universe": ["a b", "c"], "classes": [[["a b", "c"]], [["a b"]], [["c"]]]},
            {"universe": ["", "c"], "classes": [[["", "c"]], [[""]], [["c"]]]},
            {"universe": ["{a}"], "classes": [[["{a}"]]]},
            {"universe": ["1", "1"], "classes": [[["1"]]]},
            {"universe": [], "classes": []},
            {"universe": None, "classes": []},
            {"universe": ["1"], "classes": [["1"]]},
            {"universe": ["1"], "classes": [[[1]]]},
            {"universe": ["1"], "classes": [[["1"], "1"]]},
            {"universe": ["1"], "classes": "[[['1']]]"},
            {"universe": ["1"], "classes": {"0": [["1"]]}},
            {"universe": ["1"]},
            "null",
            '"universe"',
            pytest.param("[" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_rejects_malformed_structure(self, document):
        with pytest.raises(RankingSyntaxError):
            parse_ranking_json(document)

    @pytest.mark.parametrize(
        "document, error",
        [
            ({"universe": ["1"], "classes": [[["2"]]]}, OutOfUniverseError),
            ({"universe": ["1"], "classes": [[[]]]}, EmptyCoalitionError),
            ({"universe": ["1", "2"], "classes": [[["1"]]]}, MissingCoalitionError),
        ],
    )
    def test_well_formed_non_rankings_raise_domain_errors(self, document, error):
        with pytest.raises(error):
            parse_ranking_json(document)

    def test_wide_universe_fails_fast(self):
        document = {"universe": [str(i) for i in range(64)], "classes": [[["63"]]]}
        with pytest.raises(MissingCoalitionError):
            parse_ranking_json(document)


def _json_containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    _json_containers,
    max_leaves=12,
)
_names = st.sampled_from(["1", "2", "3"]) | _json_values
_documents = _json_values | st.fixed_dictionaries(
    {
        "universe": st.lists(_names, max_size=4) | _json_values,
        "classes": st.lists(
            st.lists(st.lists(_names, max_size=3) | _json_values, max_size=3), max_size=4
        )
        | _json_values,
    }
)


@settings(max_examples=300, deadline=None)
@given(document=_documents)
def test_arbitrary_json_raises_only_domain_errors(document):
    for form in (document, json.dumps(document)):
        try:
            parse_ranking_json(form)
        except MillrankError:
            pass


@settings(max_examples=340, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3, 4]))
def test_parse_render_round_trip_on_samples(seed, n):
    ranking = sample_ranking(n, seed)
    assert parse_ranking(render_ranking(ranking)) == ranking


# Documents mixing arbitrary lines with universe and class lines over a
# small alphabet, so that some of them parse and most get far into it.
_ALPHABET = "12ab{},# \t"
_lines = (
    st.text(max_size=12)
    | st.text(_ALPHABET, max_size=8).map("universe:".__add__)
    | st.text(_ALPHABET, max_size=20).map("class:".__add__)
)
_texts = st.lists(_lines, max_size=6).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(text=_texts)
def test_arbitrary_text_raises_only_domain_errors(text):
    try:
        parse_ranking(text)
    except MillrankError:
        pass


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(content=st.binary(max_size=64) | _texts.map(str.encode), suffix=st.sampled_from([".rank", ".json"]))
@example(content=b"[" * 100_000, suffix=".json")
def test_solve_on_arbitrary_files_exits_zero_or_two(input_dir, content, suffix):
    path = input_dir / ("input" + suffix)
    path.write_bytes(content)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["solve", "--rule", "plurality", "--input", str(path)])
    assert code in (0, 2)
