import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tocdetect import tree
from tocdetect.dataset import Dataset, table1_fixture
from tocdetect.errors import (
    CorruptModel,
    DatasetError,
    DataTypeError,
    EmptyDataset,
    MissingFeature,
    UnsupportedVersion,
)
from tocdetect.schema import ClassLabel
from tocdetect.tree import (
    CategoricalNode,
    Leaf,
    NumericNode,
    TrainedModel,
    best_split,
    classify,
    entropy,
    export_dot,
    export_text,
    learn,
    load_model,
    save_model,
)

from helpers import brute_force_best_split

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


# -- best_split -----------------------------------------------------------------

def test_best_split_pure_rows_returns_none():
    rows = [({"outgoing_link_frequency": 0.1}, TOC),
            ({"outgoing_link_frequency": 0.9}, TOC)]
    assert best_split(rows, ["outgoing_link_frequency"]) is None


def test_best_split_two_numeric_values():
    rows = [({"outgoing_link_frequency": 0.3}, NON),
            ({"outgoing_link_frequency": 0.56}, TOC)]
    cand = best_split(rows, ["outgoing_link_frequency"])
    assert cand.feature == "outgoing_link_frequency"
    assert cand.threshold == pytest.approx(0.43)
    assert cand.gain == pytest.approx(entropy((1, 1)))  # children pure


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
    rows = [
        ({"line_start_number_frequency": 0.0, "outgoing_link_frequency": 0.0}, NON),
        ({"line_start_number_frequency": 1.0, "outgoing_link_frequency": 1.0}, TOC),
    ]
    cand = best_split(rows, ["outgoing_link_frequency", "line_start_number_frequency"])
    assert cand.feature == "line_start_number_frequency"


# -- learn / classify -------------------------------------------------------------

def test_learn_single_row_is_leaf():
    data = make_dataset(["contains_title_term"], [(True, TOC)])
    model = learn(data)
    assert model.root == Leaf((1, 0))
    assert classify(model, {"contains_title_term": False}) == (TOC, (1, 0))


def test_learn_empty_dataset_raises():
    data = make_dataset(["contains_title_term"], [(True, TOC)])
    empty = Dataset(columns=data.columns, rows=())
    with pytest.raises(EmptyDataset):
        learn(empty)


def test_learn_contradictory_duplicates_tie_to_toc():
    data = make_dataset(["contains_title_term"], [(True, TOC), (True, NON)])
    model = learn(data)
    assert model.root == Leaf((1, 1))
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
        assert isinstance(model.root, CategoricalNode)
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

    def features_used(node):
        if isinstance(node, Leaf):
            return set()
        used = {node.feature}
        children = (node.le, node.gt) if isinstance(node, NumericNode) else node.branches.values()
        for child in children:
            used |= features_used(child)
        return used

    def no_repeat_categorical(node, seen):
        if isinstance(node, Leaf):
            return True
        if isinstance(node, CategoricalNode):
            if node.feature in seen:
                return False
            return all(no_repeat_categorical(c, seen | {node.feature}) for c in node.branches.values())
        return all(no_repeat_categorical(c, seen) for c in (node.le, node.gt))

    assert no_repeat_categorical(model.root, set())
    for values, label in data.rows:
        assert classify(model, dict(zip(data.columns, values)))[0] == label


def _depth(node):
    if isinstance(node, Leaf):
        return 0
    children = (node.le, node.gt) if isinstance(node, NumericNode) else node.branches.values()
    return 1 + max(_depth(c) for c in children)


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


def test_min_rows_prevents_splitting_small_nodes():
    data = make_dataset(
        ["outgoing_link_frequency"],
        [(0.1, TOC), (0.9, NON), (0.2, TOC)],
    )
    model = learn(data, min_rows=2)
    assert isinstance(model.root, Leaf) or all(
        isinstance(c, Leaf) for c in (model.root.le, model.root.gt)
    )


def test_xor_pattern_yields_majority_leaf():
    # no single split has positive gain, so induction stops at an impure leaf
    data = make_dataset(
        ["contains_title_term", "numbers_ascending"],
        [(False, False, TOC), (False, True, NON), (True, False, NON), (True, True, TOC)],
    )
    model = learn(data)
    assert model.root == Leaf((2, 2))


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


def test_exports_deterministic():
    runs = [learn(table1_fixture()) for _ in range(3)]
    assert len({export_text(m) for m in runs}) == 1
    assert len({export_dot(m) for m in runs}) == 1
    assert len({save_model(m) for m in runs}) == 1


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
def _random_rows(draw):
    columns = draw(
        st.lists(st.sampled_from(sorted(_COLUMN_VALUES)), min_size=1, max_size=3, unique=True)
    )
    n = draw(st.integers(1, 8))
    rows = [
        (
            {c: draw(_COLUMN_VALUES[c]) for c in columns},
            draw(st.sampled_from([TOC, NON])),
        )
        for _ in range(n)
    ]
    return columns, rows


@given(_random_rows())
def test_best_split_matches_brute_force(cols_rows):
    columns, rows = cols_rows
    cand = best_split(rows, columns)
    oracle = brute_force_best_split(rows, columns)
    if oracle is None:
        assert cand is None
    else:
        assert cand is not None
        assert cand.gain >= 0
        assert cand.feature == oracle[0]
        assert cand.threshold == oracle[1]
        assert cand.gain == pytest.approx(oracle[2], abs=1e-9)


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
