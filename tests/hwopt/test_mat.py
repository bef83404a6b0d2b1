"""Unit tests for the Memory Access Table, one access at a time
(the per-access methods of ``tests/cpu/oracle.py``)."""

from repro.hwopt.mat import MemoryAccessTable
from repro.params import BypassParams
from tests.cpu.oracle import as_oracle


def make_mat(**kwargs):
    return as_oracle(MemoryAccessTable(BypassParams(), **kwargs))


class TestCounting:
    def test_frequency_zero_untracked(self):
        mat = make_mat()
        assert mat.frequency(0x5000) == 0

    def test_record_increments(self):
        mat = make_mat()
        for _ in range(5):
            mat.record(0x5000)
        assert mat.frequency(0x5000) == 5

    def test_same_macro_block_shares_counter(self):
        mat = make_mat()
        mat.record(0x5000)
        mat.record(0x53F8)  # same 1 KB macro-block
        assert mat.frequency(0x5000) == 2

    def test_different_macro_blocks_independent(self):
        mat = make_mat()
        mat.record(0x5000)
        mat.record(0x5400)  # next macro-block
        assert mat.frequency(0x5000) == 1
        assert mat.frequency(0x5400) == 1

    def test_counter_saturates(self):
        mat = make_mat(counter_max=10, age_interval=10_000)
        for _ in range(50):
            mat.record(0)
        assert mat.frequency(0) == 10


class TestTagReplacement:
    def test_colliding_macro_block_replaces(self):
        mat = make_mat()
        entries = BypassParams().mat_entries
        mb_size = BypassParams().macro_block_size
        mat.record(0)
        collider = entries * mb_size  # same slot, different tag
        mat.record(collider)
        assert mat.frequency(0) == 0          # history lost
        assert mat.frequency(collider) == 1
        assert mat.replacements == 1

    def test_occupancy_counts_live_tags(self):
        mat = make_mat()
        mat.record(0)
        mat.record(1024)
        assert mat.occupancy() == 2


class TestAging:
    def test_aging_halves_counters(self):
        mat = make_mat(age_interval=10)
        for _ in range(9):
            mat.record(0)
        assert mat.frequency(0) == 9
        mat.record(0)  # 10th record triggers aging after increment
        assert mat.frequency(0) == 5  # 10 >> 1

    def test_aging_forgets_phases(self):
        """A block hot in an old phase decays to lukewarm — the staleness
        the paper's selective scheme exploits (Section 5.1)."""
        mat = make_mat(age_interval=100)
        for _ in range(99):
            mat.record(0)
        # Switch phase: hammer a different block through several agings.
        for _ in range(400):
            mat.record(4096)
        assert mat.frequency(0) < 10
