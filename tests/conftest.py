import os
import sys

import pytest

from aggnet import flows, fmux, graph


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion pass/fail lines after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "PASS_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def triangle():
    """Three nodes, aggregator 0, links 1->0, 2->0, 2->1, unit capacity."""
    return graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)


@pytest.fixture
def k5():
    return graph.generate("complete", n=5, capacity=1.0)


@pytest.fixture
def line3():
    return graph.generate("line", n=3, capacity=1.0)


@pytest.fixture
def diamond():
    """0 <- {1,2} <- 3: two disjoint routes from node 3 to the aggregator."""
    return graph.build_graph(4, 0, [(1, 0), (2, 0), (3, 1), (3, 2)], 1.0)


@pytest.fixture
def relay_net():
    """Four nodes where node 1 already forwarded its packet in the examples:
    links 1->0, 2->1, 2->3, 3->0."""
    return graph.build_graph(4, 0, [(1, 0), (2, 1), (2, 3), (3, 0)], 1.0)


@pytest.fixture
def shared_channel(triangle):
    """One transmitter at a time: each link alone is a schedule at rate 1."""
    schedules = tuple(flows.Schedule((l,), {l: 1.0}) for l in triangle.links)
    return flows.ScheduleSet(schedules)


@pytest.fixture
def grid_search_sss():
    """Independent check: scan the simplex of three schedules for the best split."""
    def search(g, schedule_set, step=0.02):
        best = 0.0
        ticks = int(round(1.0 / step))
        for i in range(ticks + 1):
            for j in range(ticks + 1 - i):
                w = (i * step, j * step, 1.0 - (i + j) * step)
                rates = {l: 0.0 for l in g.links}
                for wk, sched in zip(w, schedule_set.schedules):
                    for l, r in sched.rates.items():
                        rates[l] += wk * r
                value, _ = flows.min_mincut(g, rates)
                best = max(best, value)
        return best
    return search


@pytest.fixture
def parity():
    return fmux.make_parity()


@pytest.fixture
def max16():
    return fmux.make_max(16)


@pytest.fixture
def kth2():
    return fmux.make_kth(2, 16)


@pytest.fixture
def src_env():
    """Environment for a fresh interpreter that imports aggnet from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
