"""E1 — Figure 2 / Section 2.2: the Tumble worked example.

Reproduces the paper's first concrete result: Tumble(avg(B), groupby A)
over the seven-tuple sample stream "would emit two tuples and have
another tuple computation in progress", specifically (A=1, Result=2.5)
upon tuple #3 and (A=2, Result=3.0) upon tuple #6.  The benchmark times
the operator on the sample stream scaled up 10,000x.
"""

from repro.core.operators.tumble import Tumble
from repro.core.tuples import FIGURE_2_STREAM, make_stream


def run_figure_2():
    box = Tumble("avg", groupby=("A",), value_attr="B", result_attr="Result")
    emitted = []
    for tup in make_stream(FIGURE_2_STREAM):
        emitted.extend(t for _, t in box.process(tup))
    return box, emitted


def test_e01_worked_example(benchmark):
    box, emitted = run_figure_2()
    assert [t.values for t in emitted] == [
        {"A": 1, "Result": 2.5},   # emitted upon arrival of tuple #3
        {"A": 2, "Result": 3.0},   # emitted upon arrival of tuple #6
    ]
    # "a third tuple with A = 4 would not get emitted until a later
    # tuple arrives": the window is open, not lost.
    [(_, third)] = box.flush()
    assert third.values == {"A": 4, "Result": 3.5}

    # Throughput of the operator on a long repetition of the stream.
    stream = make_stream(FIGURE_2_STREAM * 10_000)

    def pump():
        hot = Tumble("avg", groupby=("A",), value_attr="B")
        count = 0
        for tup in stream:
            count += len(hot.process(tup))
        return count

    emitted_count = benchmark(pump)
    assert emitted_count > 0
    print(f"\nE1: Tumble emitted {emitted_count} windows over "
          f"{len(stream)} tuples ({emitted_count / len(stream):.3f} windows/tuple)")
