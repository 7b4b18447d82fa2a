"""Checks of the tracer's span arithmetic on synthetic span trees.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, merge_spans, self_times, summarize  # noqa: E402


def span(name, start, end, parent, arr="a"):
    return [name, float(start), float(end), parent, arr]


def test_self_time_of_nested_recursive_tree():
    # cluster [0, 10] -> refine [1, 7] -> refine [2, 5] -> eval [3, 4]
    #                 -> eval [8, 9]
    spans = [span("cluster", 0, 10, -1), span("refine", 1, 7, 0),
             span("refine", 2, 5, 1), span("eval", 3, 4, 2),
             span("eval", 8, 9, 0)]
    assert self_times(spans) == [10 - 6 - 1, 6 - 3, 3 - 1, 1, 1]
    table = summarize(spans)
    assert table["cluster"] == {"calls": 1, "s": 10, "self_s": 3}
    # inclusive time counts the outer refine only; self time both levels
    assert table["refine"] == {"calls": 2, "s": 6, "self_s": 5}
    assert table["eval"] == {"calls": 2, "s": 2, "self_s": 2}
    # self times partition the root's interval
    assert sum(self_times(spans)) == 10


def test_recursion_through_another_layer_is_not_double_counted():
    # refine -> eval -> refine: the inner refine is still inside the outer
    spans = [span("refine", 0, 8, -1), span("eval", 1, 7, 0),
             span("refine", 2, 4, 1)]
    table = summarize(spans)
    assert table["refine"]["s"] == 8
    assert table["refine"]["self_s"] == 8 - 6 + 2
    assert table["eval"] == {"calls": 1, "s": 6, "self_s": 4}


def test_overlapping_children_are_covered_once_and_clipped():
    spans = [span("root", 0, 10, -1), span("x", 1, 5, 0), span("y", 3, 7, 0),
             span("z", 9, 12, 0)]
    assert self_times(spans)[0] == 10 - 6 - 1


def test_merged_spans_hang_under_the_given_parent():
    into = [span("cli.process", 0, 10, -1, "f0")]
    merge_spans(into, [span("cli.main", 1, 9, -1, None), span("engine", 2, 8, 0, None)],
                parent=0, arrangement="f0")
    assert [s[3] for s in into] == [-1, 0, 1]
    assert all(s[4] == "f0" for s in into)
    assert summarize(into)["cli.process"]["self_s"] == 2


def test_wrapper_records_parent_arrangement_and_exceptions():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap(inner, "inner")
    outer_t = tracer.wrap(lambda x: inner_t(x) + 1, lambda x: f"outer.{x >= 0}",
                          on_result=lambda args, r: tracer.counters.update(done=1))
    tracer.arrangement = "arr-1"
    assert outer_t(2) == 3
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [s[0] for s in tracer.spans]
    assert names == ["outer.True", "inner", "outer.False", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert all(s[4] == "arr-1" for s in tracer.spans)
    assert all(s[2] > s[1] for s in tracer.spans)
    assert tracer.counters["done"] == 1
