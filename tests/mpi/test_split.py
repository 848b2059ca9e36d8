"""``Comm.split`` semantics and host cost.

Sub-ranks follow MPI_Comm_split's ``(key, rank)`` order within a colour,
and one split collective groups the allgathered triples once for the
whole communicator, not once per rank.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.mpi import run_job
from repro.sim import Engine


def run_ranks(nprocs, fn):
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="t", n_nodes=4, node=NodeSpec(cores=4)))
    return run_job(env, cluster, nprocs, fn)


def split_members(colors, keys):
    """Run one split; per rank: (sub.rank, sub.size, sub's members in order)."""
    def fn(ctx):
        sub = yield from ctx.comm.split(colors[ctx.rank], key=keys[ctx.rank])
        members = yield from sub.allgather(ctx.rank, nbytes=8)
        return sub.rank, sub.size, members

    return run_ranks(len(colors), fn).results


def expected_members(colors, keys, rank):
    same = [r for r in range(len(colors)) if colors[r] == colors[rank]]
    return sorted(same, key=lambda r: (keys[r], r))


@given(st.integers(min_value=1, max_value=24), st.data())
@settings(max_examples=40, deadline=None)
def test_sub_ranks_follow_key_then_rank(nprocs, data):
    # Keys from a narrow range with negatives: ties are common, and a tie
    # falls back to parent rank order.
    colors = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=nprocs, max_size=nprocs))
    keys = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                              min_size=nprocs, max_size=nprocs))
    for r, (sub_rank, sub_size, members) in enumerate(split_members(colors, keys)):
        expect = expected_members(colors, keys, r)
        assert members == expect
        assert sub_size == len(expect)
        assert expect[sub_rank] == r


def test_reversed_keys_reverse_the_sub_ranks():
    n = 9
    colors = [r % 2 for r in range(n)]
    results = split_members(colors, [-r for r in range(n)])
    assert results[0][2] == [8, 6, 4, 2, 0]
    assert results[1][2] == [7, 5, 3, 1]
    assert [sub_rank for sub_rank, _, _ in results] == [4, 3, 3, 2, 2, 1, 1, 0, 0]


class Counted(int):
    """An int that counts the comparisons made on it."""

    calls = 0

    def __eq__(self, other):
        Counted.calls += 1
        return int(self) == int(other)

    def __lt__(self, other):
        Counted.calls += 1
        return int(self) < int(other)

    __hash__ = int.__hash__


def test_one_split_groups_the_triples_once():
    # Comparisons on colours and keys measure the grouping work.  One
    # grouping pass costs one sort of the N (key, rank) pairs plus O(N)
    # colour lookups; a pass per rank costs N of those sorts.
    n = 64
    keys = [Counted(-(r // 2)) for r in range(n)]  # reversed, with ties
    Counted.calls = 0
    sorted((k, r) for r, k in enumerate(keys))
    one_sort = Counted.calls

    colors = [Counted(r % 2) for r in range(n)]
    Counted.calls = 0

    def fn(ctx):
        sub = yield from ctx.comm.split(colors[ctx.rank], key=keys[ctx.rank])
        return sub.rank, ctx.comm._shared

    results = run_ranks(n, fn).results
    assert one_sort < Counted.calls <= one_sort + 4 * n
    assert [sub_rank for sub_rank, _ in results[:4]] == [31, 31, 30, 30]
    # The last member to arrive drops the shared grouping.
    assert results[0][1]._split_plans == {}
