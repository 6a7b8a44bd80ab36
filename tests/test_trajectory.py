import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kgqa_env.trajectory import (
    ANSWER_COUNT,
    ORPHAN_INFO,
    PLAN_COUNT,
    PLAN_NOT_FIRST_ACTION,
    TAGS,
    ParseError,
    Step,
    Trajectory,
    answer_items,
    neutralize_tags,
    parse_trajectory,
    render_block,
    retrieval_mask,
    validate_format,
)

CONFORMING = (
    "<think>route the lookup</think>"
    "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>"
    "<relation_search>Iranian rial | currency_of</relation_search>"
    "<relation_information>currency_of</relation_information>"
    "<neighbor_search>Iranian rial | currency_of</neighbor_search>"
    "<neighbor_information>Iran</neighbor_information>"
    "<answer>Iran</answer>"
)


class TestParse:
    def test_simple_segmentation(self):
        traj = parse_trajectory("<plan>P</plan><answer>Iran</answer>")
        assert traj.step_signature == [("plan", "P"), ("answer", "Iran")]

    def test_unknown_tag(self):
        with pytest.raises(ParseError, match="unknown tag"):
            parse_trajectory("<lookup>x</lookup>")

    def test_empty_text(self):
        assert parse_trajectory("").steps == ()

    def test_unclosed_tag_reports_offset(self):
        with pytest.raises(ParseError, match="unclosed") as err:
            parse_trajectory("<think>ok</think><answer>Iran")
        assert err.value.offset == len("<think>ok</think>")

    def test_nested_tag(self):
        with pytest.raises(ParseError, match="nested"):
            parse_trajectory("<think><plan>p</plan></think>")

    def test_mismatched_closing_tag(self):
        with pytest.raises(ParseError, match="does not match"):
            parse_trajectory("<think>x</plan>")

    def test_stray_closing_tag(self):
        with pytest.raises(ParseError, match="without matching"):
            parse_trajectory("</think>")

    def test_bare_text_becomes_implicit_think(self):
        traj = parse_trajectory("hello there <plan>P</plan>")
        assert traj.step_signature == [("think", "hello there"), ("plan", "P")]

    def test_whitespace_between_blocks_is_ignored(self):
        traj = parse_trajectory("<plan>P</plan>\n\n  <answer>A</answer>")
        assert [s.tag for s in traj.steps] == ["plan", "answer"]

    @given(st.text(alphabet="<>/_ax&\n", max_size=40) | st.text(max_size=40))
    def test_neutralized_content_parses_back_as_one_block(self, content):
        safe = neutralize_tags(content)
        traj = parse_trajectory(f"<web_information>{safe}</web_information>")
        assert traj.step_signature == [("web_information", safe)]
        if "<" not in content:
            assert safe is content

    def test_neutralize_rewrites_only_tag_like_text(self):
        assert neutralize_tags("see <br> here </x> a < b <<i>") == "see &lt;br> here &lt;/x> a < b <&lt;i>"


class TestValidate:
    def test_conforming_fixture_is_valid(self):
        assert validate_format(parse_trajectory(CONFORMING)) == ()

    def test_two_plans(self):
        traj = parse_trajectory("<plan>a</plan><plan>b</plan><answer>x</answer>")
        codes = list(validate_format(traj))
        assert codes == [PLAN_COUNT]

    def test_missing_plan(self):
        traj = parse_trajectory("<answer>x</answer>")
        codes = list(validate_format(traj))
        assert PLAN_COUNT in codes

    def test_search_before_plan(self):
        traj = parse_trajectory(
            "<neighbor_search>a | r</neighbor_search><neighbor_information>x</neighbor_information>"
            "<plan>P</plan><answer>x</answer>"
        )
        codes = list(validate_format(traj))
        assert codes == [PLAN_NOT_FIRST_ACTION]

    def test_orphan_information_block(self):
        traj = parse_trajectory("<plan>P</plan><neighbor_information>x</neighbor_information><answer>a</answer>")
        codes = list(validate_format(traj))
        assert codes == [ORPHAN_INFO]

    def test_mispaired_information_block_is_orphan(self):
        traj = parse_trajectory(
            "<plan>P</plan><relation_search>a | r</relation_search>"
            "<web_information>x</web_information><answer>a</answer>"
        )
        codes = list(validate_format(traj))
        assert codes == [ORPHAN_INFO]

    def test_answer_not_last(self):
        traj = parse_trajectory("<plan>P</plan><answer>a</answer><think>late</think>")
        codes = list(validate_format(traj))
        assert codes == [ANSWER_COUNT]

    def test_two_answers(self):
        traj = parse_trajectory("<plan>P</plan><answer>a</answer><answer>b</answer>")
        codes = list(validate_format(traj))
        assert codes == [ANSWER_COUNT]

    def test_validation_is_pure(self):
        traj = parse_trajectory(CONFORMING)
        assert validate_format(traj) == validate_format(traj)

    @given(st.lists(st.sampled_from(sorted(TAGS)), max_size=12))
    @example(["plan", "web_information", "neighbor_information", "relation_information", "answer"])
    @example(["think", "web_search", "web_information", "plan", "answer"])
    @example(["plan", "neighbor_search", "neighbor_information", "plan", "answer"])
    @example([])
    def test_codes_follow_the_four_rules(self, tags):
        traj = Trajectory("t", tuple(Step(tag, "x") for tag in tags), raw="")
        assert list(validate_format(traj)) == _rule_codes(tags)


def _rule_codes(tags):
    """The codes of the four format rules ``tags`` breaks, in rule order:
    a transcription of the rules that shares no code with validate_format."""
    search_for = {
        "relation_information": "relation_search",
        "neighbor_information": "neighbor_search",
        "web_information": "web_search",
    }
    plans = [i for i, tag in enumerate(tags) if tag == "plan"]
    answers = [i for i, tag in enumerate(tags) if tag == "answer"]
    codes = []
    if len(plans) != 1:
        codes.append(PLAN_COUNT)
    if plans and any(tag in search_for.values() for tag in tags[:plans[0]]):
        codes.append(PLAN_NOT_FIRST_ACTION)
    if answers != [len(tags) - 1]:
        codes.append(ANSWER_COUNT)
    for i, tag in enumerate(tags):
        if tag in search_for and (i == 0 or tags[i - 1] != search_for[tag]):
            codes.append(ORPHAN_INFO)
    return codes


def render(traj):
    """The steps joined by newlines, each as its block, so parsing the join
    yields step-equal steps."""
    return "\n".join(render_block(s.tag, s.content) for s in traj.steps)


class TestRoundTrip:
    def test_conforming_round_trip(self):
        traj = parse_trajectory(CONFORMING)
        again = parse_trajectory(render(traj))
        assert again.step_signature == traj.step_signature

    def test_empty_block_preserved(self):
        traj = parse_trajectory("<think></think>")
        assert render(traj) == "<think></think>"
        assert parse_trajectory(render(traj)).step_signature == [("think", "")]

    def test_random_50_step_sequences_round_trip(self):
        rng = random.Random(11)
        alphabet = "abcdefgh XYZ012.,:;'!?- |"
        tags = sorted(TAGS)
        for _ in range(50):
            steps = tuple(
                Step(rng.choice(tags), "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))))
                for _ in range(50)
            )
            traj = Trajectory("t", steps, raw="")
            again = parse_trajectory(render(traj))
            assert again.step_signature == [(s.tag, s.content) for s in steps]


class TestMask:
    def test_no_information_blocks(self):
        assert retrieval_mask(parse_trajectory("<plan>P</plan><answer>A</answer>")) == []

    def test_single_information_block_span(self):
        text = "<neighbor_search>a | r</neighbor_search><neighbor_information>Iran</neighbor_information>"
        traj = parse_trajectory(text)
        (span,) = retrieval_mask(traj)
        assert text[span[0]:span[1]] == "<neighbor_information>Iran</neighbor_information>"

    def test_three_blocks_disjoint_and_complementary(self):
        text = (
            "<think>a</think><relation_search>x | y</relation_search>"
            "<relation_information>r1</relation_information><think>b</think>"
            "<neighbor_search>x | r1</neighbor_search><neighbor_information>t</neighbor_information>"
            "<think>c</think><web_search>x | r1</web_search><web_information>doc</web_information>"
            "<answer>t</answer>"
        )
        blocks = (
            "<relation_information>r1</relation_information>",
            "<neighbor_information>t</neighbor_information>",
            "<web_information>doc</web_information>",
        )
        assert retrieval_mask(parse_trajectory(text)) == [(text.index(b), text.index(b) + len(b)) for b in blocks]


class TestAnswerItems:
    def test_split_and_normalize(self):
        traj = parse_trajectory("<answer>Iran; Islamic Republic of Iran |  Persia </answer>")
        assert answer_items(traj) == ["iran", "islamic republic of iran", "persia"]

    def test_no_answer_block(self):
        assert answer_items(parse_trajectory("<plan>P</plan>")) == []

    def test_last_answer_block_wins(self):
        traj = parse_trajectory("<answer>a</answer><answer>b</answer>")
        assert answer_items(traj) == ["b"]
