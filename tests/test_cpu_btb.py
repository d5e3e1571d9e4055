"""BTB organisation: field extraction, range lookups, takeaways."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import BTB, generation
from repro.errors import CpuError
from repro.isa import Kind

_addr = st.integers(min_value=0, max_value=(1 << 47) - 1)


@pytest.fixture
def btb():
    return BTB(generation("skylake"))


class TestFields:
    def test_offset_is_low_five_bits(self, btb):
        _, _, offset = btb.fields(0x400415)
        assert offset == 0x15

    @given(_addr)
    def test_tag_truncation_aliases(self, address):
        btb = BTB(generation("skylake"))
        assert btb.aliases(address, address + (1 << 33))
        assert not btb.aliases(address, address + (1 << 32))

    @given(_addr)
    def test_icelake_wider_tag(self, address):
        btb = BTB(generation("icelake"))
        assert not btb.aliases(address, address + (1 << 33))
        assert btb.aliases(address, address + (1 << 34))

    def test_power_of_two_sets_required(self):
        with pytest.raises(CpuError):
            BTB(generation("skylake", btb_sets=300))


class TestRangeLookup:
    """Takeaway 2: hit iff same tag/set and offset >= fetch offset,
    smallest such offset wins."""

    def test_miss_on_empty(self, btb):
        assert btb.lookup(0x400000) is None

    def test_exact_and_below(self, btb):
        btb.allocate(0x400010, target=0x999, kind=Kind.DIRECT_JUMP)
        assert btb.lookup(0x400010) is not None    # equal offset
        assert btb.lookup(0x400008) is not None    # lower fetch offset
        assert btb.lookup(0x400011) is None        # above the entry

    def test_smallest_offset_wins(self, btb):
        low = btb.allocate(0x400008, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400018, 0x2, Kind.DIRECT_JUMP)
        hit = btb.lookup(0x400002)
        assert hit is low

    def test_range_skips_lower_entries(self, btb):
        btb.allocate(0x400008, 0x1, Kind.DIRECT_JUMP)
        high = btb.allocate(0x400018, 0x2, Kind.DIRECT_JUMP)
        assert btb.lookup(0x400010) is high

    def test_different_block_different_set(self, btb):
        btb.allocate(0x400008, 0x1, Kind.DIRECT_JUMP)
        assert btb.lookup(0x400028) is None        # next block

    def test_aliased_pc_hits(self, btb):
        """The cross-address-space collision the attack uses."""
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        assert btb.lookup(0x400000 + (1 << 34)) is not None

    def test_predicted_end_byte_reconstruction(self, btb):
        entry = btb.allocate(0x40041A, 0x1, Kind.DIRECT_JUMP)
        assert btb.predicted_end_byte(0x400401, entry) == 0x40041A
        alias = 0x400401 + (1 << 33)
        assert btb.predicted_end_byte(alias, entry) == 0x40041A + (1 << 33)


class TestUpdate:
    def test_same_branch_updates_in_place(self, btb):
        first = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        second = btb.allocate(0x400010, 0x2, Kind.DIRECT_JUMP)
        assert first is second
        assert first.target == 0x2
        assert btb.occupancy() == 1

    def test_deallocate(self, btb):
        entry = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.deallocate(entry)
        assert btb.lookup(0x400000) is None
        assert btb.stats.deallocations == 1

    def test_lru_eviction_within_set(self):
        btb = BTB(generation("skylake", btb_ways=2))
        # three different tags, same set/offset
        a = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400010 + (1 << 20), 0x2, Kind.DIRECT_JUMP)
        btb.allocate(0x400010 + (2 << 20), 0x3, Kind.DIRECT_JUMP)
        assert btb.stats.evictions == 1
        assert a.target != 0x1 or not a.valid or a.tag != \
            btb.fields(0x400010)[0]

    def test_touch_refreshes_lru(self):
        btb = BTB(generation("skylake", btb_ways=2))
        a = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400010 + (1 << 20), 0x2, Kind.DIRECT_JUMP)
        btb.touch(a)                       # a becomes most recent
        btb.allocate(0x400010 + (2 << 20), 0x3, Kind.DIRECT_JUMP)
        assert a.valid and a.target == 0x1


class TestFlushes:
    def test_full_flush(self, btb):
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.flush()
        assert btb.occupancy() == 0

    def test_ibrs_flush_spares_direct(self, btb):
        """§4.1: IBRS/IBPB only drop indirect predictions."""
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400030, 0x2, Kind.COND_JUMP)
        btb.allocate(0x400050, 0x3, Kind.INDIRECT_JUMP)
        btb.allocate(0x400070, 0x4, Kind.RET)
        btb.allocate(0x400090, 0x5, Kind.INDIRECT_CALL)
        btb.flush_indirect()
        kinds = {entry.kind for entry in btb.valid_entries()}
        assert kinds == {Kind.DIRECT_JUMP, Kind.COND_JUMP}


class TestPartitioning:
    def test_domains_do_not_collide(self):
        btb = BTB(generation("skylake", btb_partitioning=True))
        btb.current_domain = 1
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.current_domain = 2
        assert btb.lookup(0x400000) is None     # other domain invisible
        btb.current_domain = 1
        assert btb.lookup(0x400000) is not None

    def test_partitioning_off_by_default(self):
        btb = BTB(generation("skylake"))
        btb.current_domain = 1
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.current_domain = 2
        assert btb.lookup(0x400000) is not None

    def test_switch_without_partitioning_keeps_generations(self):
        """Lookups are domain-blind without partitioning, so a switch
        changes no lookup result and must not invalidate chains."""
        btb = BTB(generation("skylake"))
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        generation_before = btb.generation
        set_gens_before = list(btb.set_gens)
        btb.current_domain = 1
        assert btb.generation == generation_before
        assert btb.set_gens == set_gens_before
        assert btb.lookup(0x400000) is not None
        assert btb.allocate(0x400110, 0x2, Kind.DIRECT_JUMP).domain == 1

    def test_switch_under_partitioning_bumps_every_set(self):
        btb = BTB(generation("skylake", btb_partitioning=True))
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        generation_before = btb.generation
        set_gens_before = list(btb.set_gens)
        btb.current_domain = 1
        assert btb.generation == generation_before + 1
        assert btb.set_gens == [gen + 1 for gen in set_gens_before]
        assert btb.lookup(0x400000) is None     # domain 0 entry hidden
        btb.current_domain = 1                  # no switch, no bump
        assert btb.generation == generation_before + 1
