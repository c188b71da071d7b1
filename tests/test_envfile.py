import pytest

from cfpomdp import (
    EnvFileError,
    InputError,
    ValidationError,
    corpus_path,
    determinize,
    load_corpus,
    parse_env,
    serialize_env,
)
from cfpomdp.corpus import NAMES

MINIMAL = """
states: s t
actions: a
observations: x y
init: s 1
obs: s -> x 1
obs: t -> y 1
trans: s a -> t 1
trans: t a -> t 1
"""


class TestRoundTrip:
    @pytest.mark.parametrize("name", NAMES)
    def test_corpus_round_trips(self, name):
        p = load_corpus(name)
        assert parse_env(serialize_env(p)) == p

    def test_constructed_environment_round_trips(self, mu):
        d = determinize(mu, 2)
        assert parse_env(serialize_env(d)) == d

    def test_serialization_is_stable(self, mu):
        assert serialize_env(mu) == serialize_env(parse_env(serialize_env(mu)))


class TestParsing:
    def test_minimal_file(self):
        p = parse_env(MINIMAL)
        assert p.states == ("s", "t")
        assert p.trans_dist("s", "a").prob("t") == 1

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n" + MINIMAL + "\n# trailing\n"
        assert parse_env(text) == parse_env(MINIMAL)

    def test_inline_comment(self):
        text = MINIMAL.replace("init: s 1", "init: s 1  # point mass")
        assert parse_env(text) == parse_env(MINIMAL)

    @pytest.mark.parametrize(
        "needle,replacement,fragment",
        [
            ("init: s 1", "init: s 0.5 | t 0.5", "rational"),
            ("trans: s a -> t 1", "trans: s a t 1", "->"),
            ("states: s t", "states:", "empty"),
            ("obs: s -> x 1", "garbage: s -> x 1", "unknown keyword"),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, needle, replacement, fragment):
        text = MINIMAL.replace(needle, replacement)
        with pytest.raises(EnvFileError) as err:
            parse_env(text)
        assert "line" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "needle,replacement,message",
        [
            ("states: s t", "states s t", "line 2: expected '<keyword>: ...', got 'states s t'"),
            ("states: s t", "states:", "line 2: empty states declaration"),
            ("actions: a", "actions:", "line 3: empty actions declaration"),
            ("observations: x y", "observations:  # none", "line 4: empty observations declaration"),
            ("init: s 1", "init:", "line 5: expected '<id> <rational>', got ''"),
            ("trans: t a -> t 1", "trans: t a -> t 1\nstates: u", "line 10: duplicate states declaration"),
            ("trans: t a -> t 1", "trans: t a -> t 1\nactions: b", "line 10: duplicate actions declaration"),
            ("trans: t a -> t 1", "trans: t a -> t 1\nobservations: z",
             "line 10: duplicate observations declaration"),
            ("trans: t a -> t 1", "trans: t a -> t 1\ninit: t 1", "line 10: duplicate init declaration"),
            # an empty declaration is reported before a repeated one ...
            ("trans: t a -> t 1", "trans: t a -> t 1\nstates:", "line 10: empty states declaration"),
            # ... and a repeated init before its body is parsed
            ("trans: t a -> t 1", "trans: t a -> t 1\ninit: garbage", "line 10: duplicate init declaration"),
            ("obs: s -> x 1", "obs: s x 1", "line 6: obs line needs '->'"),
            ("trans: s a -> t 1", "trans: s a t 1", "line 8: trans line needs '->'"),
            ("obs: s -> x 1", "obs: -> x 1", "line 6: obs line needs one state before '->', got ''"),
            ("obs: s -> x 1", "obs: s t -> x 1", "line 6: obs line needs one state before '->', got 's t'"),
            ("obs: s -> x 1", "obs: s t u -> x 1",
             "line 6: obs line needs one state before '->', got 's t u'"),
            ("trans: s a -> t 1", "trans: -> t 1",
             "line 8: trans line needs state and action before '->', got ''"),
            ("trans: s a -> t 1", "trans: s -> t 1",
             "line 8: trans line needs state and action before '->', got 's'"),
            ("trans: s a -> t 1", "trans: s a b -> t 1",
             "line 8: trans line needs state and action before '->', got 's a b'"),
            ("trans: t a -> t 1", "trans: t a -> t 1\nobs: s -> y 1", "line 10: duplicate obs row for s"),
            ("trans: t a -> t 1", "trans: t a -> t 1\ntrans: s a -> s 1",
             "line 10: duplicate trans row for (s, a)"),
            ("obs: s -> x 1", "garbage: s -> x 1", "line 6: unknown keyword 'garbage'"),
            ("states: s t", "", "line 0: missing states declaration"),
            ("actions: a", "", "line 0: missing actions declaration"),
            ("observations: x y", "", "line 0: missing observations declaration"),
            ("init: s 1", "", "line 0: missing init declaration"),
            ("init: s 1", "init: s 1 extra", "line 5: expected '<id> <rational>', got 's 1 extra'"),
            ("obs: t -> y 1", "obs: t -> y 1 |", "line 7: expected '<id> <rational>', got ''"),
            ("init: s 1", "init: s 0.5 | t 0.5",
             "line 5: not a rational literal: '0.5' (use p/q or an integer)"),
            ("trans: t a -> t 1", "trans: t a -> t 1/2 | t 1/2",
             "line 9: duplicate entry 't' in distribution"),
            ("init: s 1", "init: s 1/2 | s 1/2", "line 5: duplicate entry 's' in distribution"),
        ],
    )
    def test_malformed_input_messages(self, needle, replacement, message):
        text = MINIMAL.replace(needle, replacement)
        for validate_result in (True, False):
            with pytest.raises(EnvFileError) as err:
                parse_env(text, validate_result=validate_result)
            assert str(err.value) == message

    def test_duplicate_row_rejected(self):
        text = MINIMAL + "trans: s a -> s 1\n"
        with pytest.raises(EnvFileError) as err:
            parse_env(text)
        assert "duplicate trans row" in str(err.value)

    def test_missing_section_rejected(self):
        text = MINIMAL.replace("init: s 1", "")
        with pytest.raises(EnvFileError):
            parse_env(text)

    def test_validation_failure_names_the_entry(self):
        text = MINIMAL.replace("trans: s a -> t 1", "trans: s a -> t 1/3")
        with pytest.raises(ValidationError) as err:
            parse_env(text)
        assert any("sum" in v and "(s,a)" in v for v in err.value.violations)

    def test_validation_can_be_deferred(self):
        text = MINIMAL.replace("trans: s a -> t 1", "trans: s a -> t 1/3")
        p = parse_env(text, validate_result=False)
        assert p.trans_dist("s", "a").total() != 1


def test_unknown_corpus_name():
    with pytest.raises(InputError, match=r"^unknown corpus environment 'nope' \(have mu, "
                                         r"mu-prime, mu-double-prime, mu-star\)$"):
        corpus_path("nope")
