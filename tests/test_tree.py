import itertools
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tocdetect import schema, tree
from tocdetect.dataset import Dataset, table1_fixture
from tocdetect.errors import (
    CorruptModel,
    DatasetError,
    DataTypeError,
    EmptyDataset,
    MissingFeature,
    UnsupportedVersion,
)
from tocdetect.pipeline import leave_one_out
from tocdetect.schema import ClassLabel
from tocdetect.tree import (
    Node,
    TrainedModel,
    classify,
    entropy,
    export_dot,
    export_text,
    learn,
    load_model,
    save_model,
)

from helpers import (
    brute_force_best_split,
    check_splits_by_brute_force,
    reference_learn,
    reference_leave_one_out,
    route_json_tree,
)

TOC, NON = ClassLabel.TOC, ClassLabel.NON_TOC


def make_dataset(columns, rows):
    return Dataset(
        columns=tuple(columns),
        rows=tuple((tuple(values), label) for *values, label in rows),
    )


# -- entropy -------------------------------------------------------------------

def test_entropy_pure():
    assert entropy((8, 0)) == 0.0
    assert entropy((0, 0)) == 0.0


def test_entropy_uniform():
    assert entropy((5, 5)) == 1.0


def test_entropy_eight_two():
    expected = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    assert entropy((8, 2)) == pytest.approx(expected, abs=1e-9)
    assert entropy((8, 2)) == pytest.approx(0.7219280948873623, abs=1e-9)


# -- the best split of a node's rows, as the root of learn(..., max_depth=1) ---------------

def test_best_split_pure_rows_returns_none():
    data = make_dataset(["outgoing_link_frequency"], [(0.1, TOC), (0.9, TOC)])
    assert learn(data, max_depth=1).root == Node((2, 0))


def test_best_split_two_numeric_values():
    data = make_dataset(["outgoing_link_frequency"], [(0.3, NON), (0.56, TOC)])
    root = learn(data, max_depth=1).root
    assert root.feature == "outgoing_link_frequency"
    assert root.threshold == pytest.approx(0.43)
    assert root.branches == {True: Node((0, 1)), False: Node((1, 0))}  # pure: gain entropy((1, 1))


def test_table1_contains_title_term_gain():
    # YES rows: 6 TOC / 1 NON-TOC; NO rows: 2 TOC / 1 NON-TOC
    data = table1_fixture()
    rows = [(dict(zip(data.columns, values)), label) for values, label in data.rows]
    yes = [label for v, label in rows if v["contains_title_term"]]
    no = [label for v, label in rows if not v["contains_title_term"]]
    assert (yes.count(TOC), yes.count(NON)) == (6, 1)
    assert (no.count(TOC), no.count(NON)) == (2, 1)
    expected = entropy((8, 2)) - 0.7 * entropy((6, 1)) - 0.3 * entropy((2, 1))
    gain = entropy((8, 2)) - (
        0.7 * entropy((6, 1)) + 0.3 * entropy((2, 1))
    )
    assert gain == pytest.approx(expected, abs=1e-12)
    # and the brute-force enumerator sees the same candidate value
    oracle = brute_force_best_split(rows, ["contains_title_term"])
    assert oracle[2] == pytest.approx(expected, abs=1e-9)


def test_best_split_tie_breaks_by_canonical_order():
    # identical partitions on two numeric columns; the canonical-earlier wins
    data = make_dataset(["outgoing_link_frequency", "line_start_number_frequency"],
                        [(0.0, 0.0, NON), (1.0, 1.0, TOC)])
    assert learn(data, max_depth=1).root.feature == "line_start_number_frequency"


# -- learn / classify -------------------------------------------------------------

def test_learn_single_row_is_leaf():
    data = make_dataset(["contains_title_term"], [(True, TOC)])
    model = learn(data)
    assert model.root == Node((1, 0))
    assert classify(model, {"contains_title_term": False}) == (TOC, (1, 0))


def test_learn_empty_dataset_raises():
    data = make_dataset(["contains_title_term"], [(True, TOC)])
    empty = Dataset(columns=data.columns, rows=())
    with pytest.raises(EmptyDataset):
        learn(empty)
    with pytest.raises(EmptyDataset):  # before the limits are checked
        learn(empty, min_rows=0)


def test_learn_contradictory_duplicates_tie_to_toc():
    data = make_dataset(["contains_title_term"], [(True, TOC), (True, NON)])
    model = learn(data)
    assert model.root == Node((1, 1))
    assert model.root.label is TOC


def test_table1_model_classifies_all_training_rows():
    data = table1_fixture()
    model = learn(data)
    for values, label in data.rows:
        predicted, _ = classify(model, dict(zip(data.columns, values)))
        assert predicted == label


def test_table1_row10_classified_non_toc():
    data = table1_fixture()
    model = learn(data)
    values, label = data.rows[9]
    assert label is NON
    assert classify(model, dict(zip(data.columns, values)))[0] is NON


def test_unseen_categorical_value_falls_back_to_majority():
    data = make_dataset(
        ["title_term_style"],
        [("LARGEST", TOC), ("LARGEST", TOC), ("NA", NON)],
    )
    learned = learn(data)
    for model in (learned, load_model(save_model(learned))):
        assert model.root.branches and model.root.threshold is None  # a categorical split
        label, counts = classify(model, {"title_term_style": "INTERMEDIATE"})
        assert label is TOC  # root majority
        assert counts == (2, 1)


def test_classify_missing_feature():
    model = learn(table1_fixture())
    with pytest.raises(MissingFeature):
        classify(model, {"contains_title_term": True})


def test_classify_type_error():
    model = learn(table1_fixture())
    data = table1_fixture()
    vector = dict(zip(data.columns, data.rows[0][0]))
    vector["line_start_number_frequency"] = "high"
    with pytest.raises(DataTypeError):
        classify(model, vector)


def test_classify_rejects_unknown_style_level():
    # no tree can branch on it, so it is an error rather than a fallback
    model = learn(make_dataset(["title_term_style"], [("LARGEST", TOC), ("NA", NON)]))
    with pytest.raises(DataTypeError):
        classify(model, {"title_term_style": "BOGUS"})


def test_categorical_column_dropped_below_its_split():
    # after splitting on the bool column, only the numeric column remains
    data = make_dataset(
        ["contains_title_term", "outgoing_link_frequency"],
        [(True, 0.1, TOC), (True, 0.9, NON), (False, 0.1, NON), (False, 0.9, NON)],
    )
    model = learn(data)

    def no_repeat_categorical(node, seen):
        below = seen | {node.feature} if node.threshold is None else seen
        return node.feature not in seen and all(no_repeat_categorical(c, below)
                                                for c in node.branches.values())

    assert no_repeat_categorical(model.root, set())
    for values, label in data.rows:
        assert classify(model, dict(zip(data.columns, values)))[0] == label


def _depth(node):
    return max((1 + _depth(c) for c in node.branches.values()), default=0)


def test_max_depth_limits_tree():
    model = learn(table1_fixture(), max_depth=1)
    assert _depth(model.root) <= 1


def test_learn_rejects_tree_deeper_than_limit(monkeypatch):
    # distinct counts with alternating labels: each split peels off one row
    def chain(n):
        return make_dataset(["contextual_term_count"],
                            [(i, TOC if i % 2 == 0 else NON) for i in range(n)])

    monkeypatch.setattr(tree, "MAX_TREE_DEPTH", 3)
    assert _depth(learn(chain(4)).root) == 3
    with pytest.raises(DatasetError, match="deeper than 3 levels"):
        learn(chain(5))


@pytest.mark.parametrize("limits", [{"min_rows": 0}, {"max_depth": 0}],
                         ids=["min-rows-0", "max-depth-0"])
def test_learn_rejects_limits_below_one(limits):
    with pytest.raises(ValueError, match=f"{next(iter(limits))} must be >= 1"):
        learn(table1_fixture(), **limits)


def test_min_rows_prevents_splitting_small_nodes():
    data = make_dataset(
        ["outgoing_link_frequency"],
        [(0.1, TOC), (0.9, NON), (0.2, TOC)],
    )
    model = learn(data, min_rows=2)
    assert all(not c.branches for c in model.root.branches.values())  # root or its children leaves


def test_xor_pattern_yields_majority_leaf():
    # no single split has positive gain, so induction stops at an impure leaf
    data = make_dataset(
        ["contains_title_term", "numbers_ascending"],
        [(False, False, TOC), (False, True, NON), (True, False, NON), (True, True, TOC)],
    )
    model = learn(data)
    assert model.root == Node((2, 2))


# -- exports -------------------------------------------------------------------

def test_export_text_single_leaf():
    model = learn(make_dataset(["contains_title_term"], [(True, TOC)]))
    assert export_text(model) == "→ TOC (1/0)\n"


def test_export_text_depth_one_numeric_has_three_lines():
    data = make_dataset(["outgoing_link_frequency"], [(0.3, NON), (0.56, TOC)])
    text = export_text(learn(data))
    lines = text.splitlines()
    assert len(lines) == 3
    assert "outgoing_link_frequency <=" in lines[0]
    assert lines[1].strip().startswith("yes:")
    assert lines[2].strip().startswith("no:")


def test_export_dot_is_valid_digraph():
    dot = export_dot(learn(table1_fixture()))
    assert dot.startswith("digraph decision_tree {")
    assert dot.rstrip().endswith("}")
    assert "->" in dot


def test_exports_render_categorical_branches():
    links = Node((1, 1), "outgoing_link_frequency", 0.5, {True: Node((1, 0)), False: Node((0, 1))})
    root = Node((3, 1), "title_term_style", None,
                {"LARGEST": Node((2, 0)), "MOST_FREQUENT": links})
    model = TrainedModel(root=root, columns=("title_term_style", "outgoing_link_frequency"))
    assert export_text(model) == (
        "title_term_style?\n"
        "    = LARGEST: → TOC (2/0)\n"
        "    = MOST_FREQUENT: outgoing_link_frequency <= 0.5?\n"
        "        yes: → TOC (1/0)\n"
        "        no: → NON-TOC (0/1)\n"
    )
    assert export_dot(model) == (
        "digraph decision_tree {\n"
        "  node [shape=ellipse];\n"
        '  n0 [label="title_term_style", shape=box];\n'
        '  n1 [label="TOC (2/0)"];\n'
        '  n0 -> n1 [label="= LARGEST"];\n'
        '  n2 [label="outgoing_link_frequency", shape=box];\n'
        '  n3 [label="TOC (1/0)"];\n'
        '  n2 -> n3 [label="<= 0.5"];\n'
        '  n4 [label="NON-TOC (0/1)"];\n'
        '  n2 -> n4 [label="> 0.5"];\n'
        '  n0 -> n2 [label="= MOST_FREQUENT"];\n'
        "}\n"
    )


def test_exports_deterministic():
    runs = [learn(table1_fixture()) for _ in range(3)]
    assert len({export_text(m) for m in runs}) == 1
    assert len({export_dot(m) for m in runs}) == 1
    assert len({save_model(m) for m in runs}) == 1


def _noisy_twins_dataset():
    """300 rows from random.Random(30): every column, in reverse canonical order, so each
    canonically later twin (a copy of another column, whose gains tie with it) comes first;
    TOC by a rule of four columns, with about 15% of the labels flipped."""
    rng = random.Random(30)
    columns = tuple(reversed(schema.CANONICAL_COLUMNS))
    rows = []
    for _ in range(300):
        v = {
            "contains_title_term": rng.random() < 0.5,
            "title_term_style": rng.choice(schema.STYLE_LEVELS),
            "title_term_font_class": rng.choice(["SERIF", "SANS", "MONO"]),
            "contextual_term_count": rng.randrange(6),
            "section_term_frequency": rng.randrange(9) / 8,
            "line_start_number_frequency": rng.randrange(11) / 10,
            "line_end_number_frequency": rng.randrange(21) / 20,
            "outgoing_link_frequency": rng.randrange(5) / 4,
        }
        v["numbers_ascending"] = v["contains_title_term"]
        v["title_term_line_position"] = v["section_term_frequency"]
        toc = v["line_end_number_frequency"] > 0.4 and (
            v["contains_title_term"] or v["contextual_term_count"] >= 3
            or v["title_term_style"] == "LARGEST")
        if rng.random() < 0.15:
            toc = not toc
        rows.append((tuple(v[c] for c in columns), TOC if toc else NON))
    return Dataset(columns=columns, rows=tuple(rows))


def test_noisy_twins_model_matches_golden():
    # a tree of many ties, pinned byte for byte on every supported Python
    golden = Path(__file__).parent / "goldens" / "noisy_twins_model.json"
    assert save_model(learn(_noisy_twins_dataset())) == golden.read_bytes()


# -- serialization ---------------------------------------------------------------

def test_save_load_save_fixpoint():
    model = learn(table1_fixture())
    data = save_model(model)
    assert save_model(load_model(data)) == data


def test_load_ignores_whitespace_and_key_order():
    data = save_model(learn(table1_fixture()))
    compact = json.dumps(json.loads(data), sort_keys=True, separators=(",", ":"))
    assert save_model(load_model(compact.encode())) == data


def test_load_round_trips_model():
    model = learn(table1_fixture())
    assert load_model(save_model(model)) == model


def test_loaded_model_classifies_identically():
    data = table1_fixture()
    model = learn(data)
    loaded = load_model(save_model(model))
    for values, _ in data.rows:
        vector = dict(zip(data.columns, values))
        assert classify(loaded, vector) == classify(model, vector)


def test_raw_categorical_values_learn_normalized_branches():
    data = make_dataset(
        ["title_term_font_class"], [("Times New Roman", TOC), ("Arial", NON)]
    )
    model = learn(data)
    assert set(model.root.branches) == {"TIMES_NEW_ROMAN", "ARIAL"}
    assert load_model(save_model(model)) == model
    assert classify(model, {"title_term_font_class": "times-new-roman"}) == (TOC, (1, 0))


def test_truncated_model_is_corrupt():
    data = save_model(learn(table1_fixture()))
    with pytest.raises(CorruptModel):
        load_model(data[: len(data) // 2])


def test_top_level_array_is_corrupt():
    with pytest.raises(CorruptModel, match="top-level JSON value is not an object"):
        load_model(b"[" + save_model(learn(table1_fixture())) + b"]")


def test_unsupported_version():
    doc = json.loads(save_model(learn(table1_fixture())))
    doc["version"] = 99
    with pytest.raises(UnsupportedVersion):
        load_model(json.dumps(doc).encode())


def test_model_json_structure():
    doc = json.loads(save_model(learn(table1_fixture())))
    assert set(doc) == {"version", "columns", "feature_config", "summary", "root"}
    assert doc["summary"] == {"rows": 10, "labels": {"TOC": 8, "NON-TOC": 2}}
    (tag, body), = doc["root"].items()
    assert tag in ("leaf", "num", "cat")


# -- node equality ------------------------------------------------------------------

def _chain(depth, deepest):
    """A numeric chain, depth splits deep, whose innermost <= branch is Node(deepest)."""
    node = Node(deepest)
    for i in range(depth):
        node = Node((1, 1), "contextual_term_count", i + 0.5, {True: node, False: Node((0, 1))})
    return node


def _styles(order):
    leaves = {"LARGEST": Node((2, 0)), "NA": Node((0, 1))}
    return Node((2, 1), "title_term_style", None, {key: leaves[key] for key in order})


def _yes_no(threshold):
    return Node((1, 1), "contains_title_term", threshold, {True: Node((1, 0)), False: Node((0, 1))})


@pytest.mark.parametrize("left, right, equal", [
    (lambda: _chain(3, (1, 0)), lambda: _chain(3, (1, 0)), True),
    (lambda: _styles(["LARGEST", "NA"]), lambda: _styles(["NA", "LARGEST"]), True),
    (lambda: _yes_no(0.5), lambda: _yes_no(None), False),
    (lambda: _chain(2 * tree.MAX_TREE_DEPTH, (1, 0)),
     lambda: _chain(2 * tree.MAX_TREE_DEPTH, (1, 0)), True),
    (lambda: _chain(2 * tree.MAX_TREE_DEPTH, (1, 0)),
     lambda: _chain(2 * tree.MAX_TREE_DEPTH, (0, 1)), False),
], ids=["built-separately", "branch-order-ignored", "numeric-vs-boolean-categorical",
        "deep-equal", "deep-differ-at-deepest-leaf"])
def test_node_equality(left, right, equal):
    a, b = left(), right()
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is not equal


# -- properties -------------------------------------------------------------------

@given(st.permutations(range(10)))
def test_row_permutation_leaves_model_unchanged(order):
    data = table1_fixture()
    permuted = Dataset(columns=data.columns, rows=tuple(data.rows[i] for i in order))
    assert learn(permuted) == learn(data)


_EIGHTHS = st.sampled_from([i / 8 for i in range(9)])
# neighbouring doubles: the midpoint of two of them rounds to the lower or the upper one
_NEAR_HALF = st.sampled_from([math.nextafter(0.5, 0), 0.5, math.nextafter(0.5, 1),
                              math.nextafter(math.nextafter(0.5, 1), 1)])

_COLUMN_VALUES = {
    "contains_title_term": st.booleans(),
    "title_term_style": st.sampled_from(["LARGEST", "INTERMEDIATE", "MOST_FREQUENT", "NA"]),
    # the midpoint of 2**53 - 1 and 2**53 rounds up to 2**53
    "contextual_term_count": st.integers(0, 3) | st.sampled_from([2**53 - 1, 2**53]),
    "outgoing_link_frequency": _EIGHTHS | st.floats(0, 1),
    "line_end_number_frequency": _EIGHTHS | _NEAR_HALF,
}


@st.composite
def _random_data(draw):
    columns = draw(
        st.lists(st.sampled_from(sorted(_COLUMN_VALUES)), min_size=1, max_size=3, unique=True)
    )
    rows = [(tuple(draw(_COLUMN_VALUES[c]) for c in columns), draw(st.sampled_from([TOC, NON])))
            for _ in range(draw(st.integers(1, 12)))]
    limits = draw(st.fixed_dictionaries({}, optional={
        "max_depth": st.integers(1, 4), "min_rows": st.integers(1, 3)}))
    return Dataset(columns=tuple(columns), rows=tuple(rows)), limits


@settings(deadline=None)
@given(_random_data())
def test_best_split_matches_brute_force(data_limits):
    data, limits = data_limits
    check_splits_by_brute_force(data, learn(data, **limits).root, **limits)


# -- the column-list grower against the row-dict grower it replaced -------------------------

_HALF_UP = math.nextafter(0.5, 1.0)


def test_learn_matches_the_row_dict_reference_on_cuts_that_round():
    # the cut between 0.5 and _HALF_UP rounds down to 0.5; the next cut rounds up to its upper
    # value
    values = [0.5, _HALF_UP, math.nextafter(_HALF_UP, 1.0)]
    assert [(lo + hi) / 2 for lo, hi in zip(values, values[1:])] == [values[0], values[2]]
    for labels in itertools.product([TOC, NON], repeat=2 * len(values)):
        data = make_dataset(["outgoing_link_frequency"], zip(values * 2, labels))
        assert learn(data).root == reference_learn(data)


def test_categorical_gain_sums_groups_in_serialized_order():
    # The style levels' rows come in reverse serialized order, and their font twins' in
    # serialized order. Added left to right, the style groups' weighted entropies (counts 0/1,
    # 1/2, 2/3, 1/1 TOC/NON-TOC in serialized order) give a larger float in serialized order
    # than in reverse, so the font column's gain is the higher one, on every Python: builtin
    # sum, which compensates from 3.12 on, would tie the two there and pick the style column.
    # Added in first-seen row order, the two gains would tie too.
    levels = {"NA": ("A", (1, 1)), "MOST_FREQUENT": ("B", (2, 3)),
              "LARGEST": ("C", (1, 2)), "INTERMEDIATE": ("D", (0, 1))}
    data = make_dataset(["title_term_style", "title_term_font_class"],
                        [(style, font, label) for style, (font, (toc, non)) in levels.items()
                         for label in [TOC] * toc + [NON] * non])
    root = learn(data, max_depth=1).root
    assert root == reference_learn(data, max_depth=1)
    assert root.feature == "title_term_font_class"


@given(st.lists(st.text(), max_size=6), st.lists(st.booleans(), max_size=3))
def test_checked_values_sort_as_they_serialize(texts, flags):
    # so a categorical split orders its levels with plain sorted, in serialized order
    levels = []
    for text in texts:
        try:
            levels.append(schema.check_value("title_term_font_class", text))
        except DataTypeError:  # an empty level
            pass
    for column, values in (("title_term_font_class", levels), ("numbers_ascending", flags)):
        assert sorted(values) == sorted(values, key=lambda v: schema.format_value(column, v))


_GROWER_VALUES = {
    "contains_title_term": st.booleans(),
    "title_term_style": st.sampled_from(["LARGEST", "INTERMEDIATE", "MOST_FREQUENT", "NA"]),
    "title_term_font_class": st.sampled_from(["A", "B_C", "TIMES"]),
    "contextual_term_count": st.integers(0, 5) | st.sampled_from([2**53 - 1, 2**53]),
    "section_term_frequency": st.sampled_from([0, 0.0, 0.25, 0.5, 1, 1.0]),
    "outgoing_link_frequency": _EIGHTHS | _NEAR_HALF,
    "line_end_number_frequency": st.floats(0, 1),
}


@st.composite
def _grower_data(draw):
    columns = draw(st.lists(st.sampled_from(sorted(_GROWER_VALUES)), min_size=1, unique=True))
    # twin columns split alike, so their gains tie; "first" puts each twin before its
    # canonically earlier original, so dataset order and canonical order disagree on the tie
    twins = draw(st.sampled_from([None, "last", "first"]))
    rows = []
    for _ in range(draw(st.integers(2, 24))):
        values = {c: draw(_GROWER_VALUES[c]) for c in columns}
        if twins:
            pair = {"numbers_ascending": values.get("contains_title_term", False),
                    "title_term_line_position": values.get("section_term_frequency", 0.5)}
            values = {**values, **pair} if twins == "last" else {**pair, **values, **pair}
        rows.append((tuple(values.values()), draw(st.sampled_from([TOC, NON]))))
    limits = draw(st.fixed_dictionaries({}, optional={
        "max_depth": st.integers(1, 5), "min_rows": st.integers(1, 4)}))
    return Dataset(columns=tuple(values), rows=tuple(rows)), limits


def _outcome(grow):
    try:
        return grow()
    except DatasetError as exc:  # too deep
        return str(exc)


def _grower_example(column, values, labels, other=None):
    """A dataset of one column, or of two where other names a twin of the first."""
    columns = (column,) if other is None else (column, other)
    rows = tuple(((v,) * len(columns), label) for v, label in zip(values, labels))
    return Dataset(columns=columns, rows=rows), {}


@settings(max_examples=300, deadline=None)
@given(_grower_data())
@example(_grower_example("section_term_frequency", [0, 0.0, 0.5, 0.0, 1, 0.5],
                         [TOC, NON, TOC, TOC, NON, NON]))  # 0 and 0.0 are one value
@example(_grower_example("outgoing_link_frequency",  # the cut rounds up to the upper value
                         [_HALF_UP, math.nextafter(_HALF_UP, 1.0), 0.0, _HALF_UP],
                         [TOC, NON, TOC, NON]))
@example(_grower_example("outgoing_link_frequency", [0.0, 0.25, 0.5, 0.75, 1.0],
                         [TOC, TOC, NON, TOC, NON], other="section_term_frequency"))
@example(_grower_example("contains_title_term", [True, False, True, False],
                         [TOC, NON, NON, NON], other="numbers_ascending"))
def test_grower_matches_the_row_dict_reference(data_limits):
    data, limits = data_limits
    root, expected = learn(data, **limits).root, reference_learn(data, **limits)
    assert root == expected
    # and branch order and threshold reprs too
    assert save_model(TrainedModel(root, data.columns)) == save_model(
        TrainedModel(expected, data.columns))
    assert leave_one_out(data, **limits) == reference_leave_one_out(data, **limits)
    with mock.patch.object(tree, "MAX_TREE_DEPTH", 3):
        assert (_outcome(lambda: learn(data, **limits).root)
                == _outcome(lambda: reference_learn(data, **limits)))
        assert (_outcome(lambda: leave_one_out(data, **limits))
                == _outcome(lambda: reference_leave_one_out(data, **limits)))


_FONTS = ["Times New Roman", "times-new roman", "Arial", "Courier"]
_TRAINING_VALUES = {**_COLUMN_VALUES, "title_term_font_class": st.sampled_from(_FONTS)}
# raw spellings check_value normalizes, and levels that no training row may hold
_ROUTED_VALUES = {
    **_TRAINING_VALUES,
    "title_term_style": st.sampled_from(["LARGEST", "intermediate", "most-frequent", "NA"]),
    "title_term_font_class": st.sampled_from(_FONTS + ["Helvetica", "ARIAL "]),
}


@st.composite
def _learned_model(draw):
    columns = draw(st.lists(st.sampled_from(sorted(_TRAINING_VALUES)), min_size=1, unique=True))
    rows = draw(st.lists(st.tuples(st.tuples(*(_TRAINING_VALUES[c] for c in columns)),
                                   st.sampled_from([TOC, NON])), min_size=1, max_size=30))
    return learn(Dataset(columns=tuple(columns), rows=tuple(rows)))


@settings(max_examples=150, deadline=None)
@given(_learned_model(), st.data())
def test_learned_tree_round_trips_and_routes_as_its_json(model, data):
    saved = save_model(model)
    loaded = load_model(saved)
    assert loaded == model
    assert save_model(loaded) == saved
    # equality ignores branch order, and the renderers follow it
    assert (export_text(loaded), export_dot(loaded)) == (export_text(model), export_dot(model))
    root = json.loads(saved)["root"]
    for _ in range(5):
        vector = {c: data.draw(_ROUTED_VALUES[c]) for c in model.columns}
        label, counts = classify(model, vector)
        assert route_json_tree(root, vector) == (str(label), counts)


@st.composite
def _rule_labeled_dataset(draw):
    # labels are a function of one hidden column, so the data is consistent
    # and a zero-error greedy tree exists
    columns = draw(
        st.lists(st.sampled_from(sorted(_COLUMN_VALUES)), min_size=1, max_size=3, unique=True)
    )
    rule_col = draw(st.sampled_from(columns))
    n = draw(st.integers(2, 8))
    raw = [{c: draw(_COLUMN_VALUES[c]) for c in columns} for _ in range(n)]
    if isinstance(raw[0][rule_col], bool) or isinstance(raw[0][rule_col], str):
        toc_values = {v for v in {r[rule_col] for r in raw} if draw(st.booleans())}
        labeled = [(r, TOC if r[rule_col] in toc_values else NON) for r in raw]
    else:
        threshold = draw(st.sampled_from([i / 8 + 0.01 for i in range(9)]))
        labeled = [(r, TOC if r[rule_col] <= threshold else NON) for r in raw]
    return Dataset(
        columns=tuple(columns),
        rows=tuple((tuple(r[c] for c in columns), label) for r, label in labeled),
    )


@settings(max_examples=200)
@given(_rule_labeled_dataset())
def test_consistent_data_trains_to_perfect_accuracy(data):
    # brute-force consistency check first
    for i, (vi, li) in enumerate(data.rows):
        for vj, lj in data.rows[i + 1:]:
            if vi == vj:
                assert li == lj
    model = learn(data)
    for values, label in data.rows:
        assert classify(model, dict(zip(data.columns, values)))[0] == label
