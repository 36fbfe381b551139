"""Unit tests for the simulated process/system substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.winapi.clock import VirtualClock
from repro.winapi.process import ProcessState, System, READER_BASE_MEMORY


class TestVirtualClock:
    def test_monotonic(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestProcessMemory:
    def test_base_memory(self):
        system = System()
        reader = system.spawn_reader()
        assert reader.memory_counters().private_usage == READER_BASE_MEMORY

    def test_alloc_accumulates_per_bucket(self):
        system = System()
        proc = system.spawn("x.exe", base_memory=100)
        proc.alloc("doc1:js", 50)
        proc.alloc("doc1:js", 25)
        proc.alloc("doc2:render", 10)
        assert proc.private_bytes == 185

    def test_free_releases_whole_bucket(self):
        system = System()
        proc = system.spawn("x.exe", base_memory=0)
        proc.alloc("a", 100)
        assert proc.free("a") == 100
        assert proc.private_bytes == 0
        assert proc.free("a") == 0

    def test_peak_tracks_high_water(self):
        system = System()
        proc = system.spawn("x.exe", base_memory=0)
        proc.alloc("a", 500)
        proc.free("a")
        assert proc.memory_counters().peak_working_set_size == 500

    def test_set_bucket_replaces(self):
        system = System()
        proc = system.spawn("x.exe", base_memory=0)
        proc.alloc("a", 100)
        proc.set_bucket("a", 30)
        assert proc.private_bytes == 30

    def test_negative_alloc_rejected(self):
        system = System()
        proc = system.spawn("x.exe")
        with pytest.raises(ValueError):
            proc.alloc("a", -1)
        assert proc.private_bytes == proc.base_memory


_TAGS = st.sampled_from(["doc1:js", "doc1:render", "doc2:js"])
_MEMORY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), _TAGS, st.integers(0, 1 << 40)),
        st.tuples(st.just("free"), _TAGS, st.just(0)),
        st.tuples(st.just("set_bucket"), _TAGS, st.integers(-(1 << 20), 1 << 40)),
    ),
    max_size=40,
)


@given(base=st.integers(0, 1 << 30), ops=_MEMORY_OPS)
def test_private_bytes_and_peak_follow_the_buckets(base, ops):
    """The running total behind ``private_bytes`` equals the base plus
    the sum of the buckets after every operation, and the peak is the
    running maximum of that sum."""
    proc = System().spawn("x.exe", base_memory=base)
    buckets = {}
    peak = base
    for op, tag, nbytes in ops:
        if op == "alloc":
            proc.alloc(tag, nbytes)
            buckets[tag] = buckets.get(tag, 0) + nbytes
        elif op == "free":
            assert proc.free(tag) == buckets.pop(tag, 0)
        else:
            proc.set_bucket(tag, nbytes)
            buckets[tag] = max(0, nbytes)
        private = base + sum(buckets.values())
        peak = max(peak, private)
        assert proc.private_bytes == private
        counters = proc.memory_counters()
        assert counters.private_usage == counters.working_set_size == private
        assert counters.peak_working_set_size == peak


class TestLifecycle:
    def test_crash_sets_state_once(self):
        system = System()
        proc = system.spawn("x.exe")
        proc.crash("boom")
        proc.exit("late")
        assert proc.state is ProcessState.CRASHED
        assert proc.exit_reason == "boom"
        assert not proc.alive

    def test_terminate(self):
        system = System()
        proc = system.spawn("x.exe")
        proc.terminate("confined")
        assert proc.state is ProcessState.TERMINATED

    @given(ends=st.lists(st.sampled_from(["crash", "exit", "terminate"]), max_size=4))
    def test_alive_follows_the_state(self, ends):
        """``alive`` is a plain attribute beside ``state``: it reads
        ``state is RUNNING`` after every end, and the first end wins."""
        states = {
            "crash": ProcessState.CRASHED,
            "exit": ProcessState.EXITED,
            "terminate": ProcessState.TERMINATED,
        }
        proc = System().spawn("x.exe")
        assert proc.alive and proc.state is ProcessState.RUNNING
        for end in ends:
            getattr(proc, end)(end)
            assert not proc.alive
            assert proc.state is states[ends[0]] and proc.exit_reason == ends[0]

    def test_modules(self):
        system = System()
        proc = system.spawn("x.exe")
        proc.load_module("evil.dll")
        proc.load_module("evil.dll")
        assert proc.modules.count("evil.dll") == 1
        assert proc.has_module("ntdll.dll")

    def test_spawn_assigns_unique_pids(self):
        system = System()
        pids = {system.spawn("a.exe").pid for _ in range(5)}
        assert len(pids) == 5

    def test_parent_linkage(self):
        system = System()
        parent = system.spawn("p.exe")
        child = system.spawn("c.exe", parent=parent)
        assert child.parent_pid == parent.pid

    def test_whitelist(self):
        system = System()
        assert system.is_whitelisted_program("WerFault.exe")
        assert not system.is_whitelisted_program("evil.exe")

    def test_running_filter(self):
        system = System()
        a = system.spawn("a.exe")
        b = system.spawn("b.exe")
        b.crash("x")
        assert a in system.running()
        assert b not in system.running()
