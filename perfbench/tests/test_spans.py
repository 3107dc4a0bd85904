import json
import threading

import pytest

import spans as sp


def span(sid, parent, name, start, end, tid=1, rid=None):
    return (sid, parent, name, tid, start, end, rid)


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, "bench.round", 0.0, 10.0),
        span(2, 1, "connector.connect", 1.0, 3.0),
        span(3, 2, "automata.product", 1.5, 2.0),
        span(4, 1, "engine.post_send", 4.0, 5.0),
    ]
    selfs = sp.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # Three task threads under one join: [1,5], [3,8] overlap, [9,12]
    # runs past the join's end and only its covered part counts.
    spans = [
        span(1, 0, "tasks.spawn_join", 0.0, 10.0),
        span(2, 1, "npb.party", 1.0, 5.0, tid=2),
        span(3, 1, "npb.party", 3.0, 8.0, tid=3),
        span(4, 1, "npb.party", 9.0, 12.0, tid=4),
    ]
    selfs = sp.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 1.0)
    by_name = sp.self_by_name(spans, selfs)
    assert by_name["npb.party"] == pytest.approx(4.0 + 5.0 + 3.0)


def test_covered_merges_touching_and_contained_intervals():
    assert sp.covered([(0, 2), (2, 3), (0.5, 1)], 0, 10) == pytest.approx(3)
    assert sp.covered([(5, 6), (1, 2)], 1.5, 5.5) == pytest.approx(1.0)
    assert sp.covered([], 0, 1) == 0


def test_coverage_counts_root_and_wrapper_self_time_as_unexplained():
    # A root [0,10] around a wrapper [1,10] whose children cover [2,5]
    # and [4,8]: the root keeps 1 s, the wrapper 3 s, so 6 of 10 s are
    # explained by inner layers.
    spans = [
        span(1, 0, "bench.reo", 0.0, 10.0),
        span(2, 1, "npb.run_reo", 1.0, 10.0),
        span(3, 2, "connector.connect", 2.0, 5.0),
        span(4, 2, "tasks.spawn_join", 4.0, 8.0),
        span(5, 4, "npb.party", 4.0, 8.0, tid=2),
    ]
    selfs = sp.self_times(spans)
    roots = [spans[0]]
    assert sp.coverage(spans, selfs, roots, ("npb.run_reo",)) == \
        pytest.approx(0.6)
    # Without the wrapper rule its self time would count as explained.
    assert sp.coverage(spans, selfs, roots) == pytest.approx(0.9)
    assert sp.coverage(spans, selfs, []) == 0.0


def test_tracer_links_task_threads_to_their_spawner(tmp_path):
    tracer = sp.Tracer()

    def task(parent):
        tracer.call("npb.party", lambda: None, (), {}, parent=parent)

    def body():
        parent = tracer.current()
        t = threading.Thread(target=task, args=(parent,))
        t.start()
        t.join()

    tracer.call("bench.reo", body, (), {})
    party, root = tracer.spans
    assert root[1] == 0 and party[1] == root[0]
    assert party[3] != root[3]

    path = tmp_path / "trace.json"
    sp.write_chrome_trace(path, tracer)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"bench.reo", "npb.party"}
    assert all(e["dur"] >= 0 for e in complete)
    assert {e["cat"] for e in complete} == {"bench", "npb"}
