"""Unit and property tests for the LSQ and the dependence predictor."""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.uarch.lsq import DependencePredictor, LoadStoreQueue, LsqEntry


class TestLsqBasics:
    def test_forward_exact_match(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 0xAABBCCDD)
        got = lsq.forward((0, 1), 0x100, 8, b"\x00" * 8)
        assert got == 0xAABBCCDD

    def test_forward_respects_program_order(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 1)
        lsq.insert_store((0, 2), 0x100, 8, 2)    # younger store
        # a load between them sees only the first
        assert lsq.forward((0, 1), 0x100, 8, b"\x00" * 8) == 1
        # a load after both sees the second
        assert lsq.forward((1, 0), 0x100, 8, b"\x00" * 8) == 2

    def test_partial_overlap_merges_bytes(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x102, 2, 0xBEEF)
        raw = (0x1111111111111111).to_bytes(8, "little")
        got = lsq.forward((0, 1), 0x100, 8, raw)
        assert got == 0x11111111BEEF1111

    def test_nullified_store_is_transparent(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), None, 8, 0, nullified=True)
        assert lsq.forward((0, 1), 0x100, 8, b"\x07" + b"\x00" * 7) == 7

    def test_violation_detects_younger_executed_load(self):
        lsq = LoadStoreQueue()
        lsq.insert_load((1, 3), 0x100, 8)        # younger load ran early
        violators = lsq.insert_store((0, 5), 0x104, 4, 0xFF)
        assert violators == [(1, 3)]

    def test_no_violation_for_older_or_disjoint_loads(self):
        lsq = LoadStoreQueue()
        lsq.insert_load((0, 1), 0x100, 8)        # older than the store
        lsq.insert_load((2, 0), 0x200, 8)        # disjoint address
        assert lsq.insert_store((1, 0), 0x100, 8, 1) == []

    def test_commit_drains_in_lsid_order(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 5), 0x108, 8, 2)
        lsq.insert_store((0, 1), 0x100, 8, 1)
        lsq.insert_load((0, 3), 0x100, 8)
        entries = lsq.commit_block(0)
        assert [e.key for e in entries] == [(0, 1), (0, 5)]
        assert lsq.occupancy() == 0

    def test_flush_removes_only_named_blocks(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 1)
        lsq.insert_store((1, 0), 0x108, 8, 2)
        lsq.flush_blocks({1})
        assert (0, 0) in lsq.entries and (1, 0) not in lsq.entries

    def test_duplicate_key_rejected(self):
        lsq = LoadStoreQueue()
        lsq.insert_store((0, 0), 0x100, 8, 1)
        with pytest.raises(ValueError):
            lsq.insert_store((0, 0), 0x100, 8, 1)


class TestForwardingProperty:
    """Byte-granular forwarding equals a naive byte-replay reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 3),                       # block seq
        st.integers(0, 31),                      # lsid
        st.integers(0x100, 0x11F),               # address
        st.sampled_from([1, 2, 4, 8]),           # size
        st.integers(0, 2**64 - 1)),              # data
        min_size=1, max_size=12,
        unique_by=lambda t: (t[0], t[1])),
        st.tuples(st.integers(0, 4), st.integers(0, 31),
                  st.integers(0x100, 0x118), st.sampled_from([1, 2, 4, 8])))
    def test_matches_byte_replay(self, stores, load):
        lsq = LoadStoreQueue()
        for seq, lsid, addr, size, data in stores:
            lsq.insert_store((seq, lsid), addr, size, data)
        lseq, llsid, laddr, lsize = load
        base = bytes((i * 37) % 256 for i in range(lsize))
        got = lsq.forward((lseq, llsid), laddr, lsize, base)

        # reference: replay older stores byte by byte in program order
        mem = {laddr + i: base[i] for i in range(lsize)}
        for seq, lsid, addr, size, data in sorted(stores):
            if (seq, lsid) >= (lseq, llsid):
                continue
            payload = (data & ((1 << (8 * size)) - 1)).to_bytes(size,
                                                                "little")
            for i in range(size):
                if addr + i in mem:
                    mem[addr + i] = payload[i]
        expect = int.from_bytes(
            bytes(mem[laddr + i] for i in range(lsize)), "little")
        assert got == expect


class _ScanLsq:
    """The LSQ before its per-block index: commit and flush scan (and
    commit sorts) every key in the queue."""

    def __init__(self, capacity=256):
        self.capacity = capacity
        self.entries = {}
        self.peak_occupancy = 0

    def insert_store(self, key, address, size, data, nullified=False):
        if key in self.entries:
            raise ValueError(f"duplicate LSQ key {key}")
        self.entries[key] = LsqEntry(key=key, is_store=True, address=address,
                                     size=size, data=data,
                                     nullified=nullified)
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))
        if nullified or address is None:
            return []
        return sorted(
            other.key for other in self.entries.values()
            if not other.is_store and other.key > key
            and other.address is not None
            and address < other.address + other.size
            and other.address < address + size)

    def insert_load(self, key, address, size):
        if key in self.entries:
            raise ValueError(f"duplicate LSQ key {key}")
        self.entries[key] = LsqEntry(key=key, is_store=False,
                                     address=address, size=size)
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))

    def forward(self, key, address, size, memory_bytes):
        result = bytearray(memory_bytes)
        for skey in sorted(k for k, e in self.entries.items()
                           if e.is_store and k < key):
            entry = self.entries[skey]
            if entry.nullified or entry.address is None:
                continue
            lo = max(address, entry.address)
            hi = min(address + size, entry.address + entry.size)
            data = (entry.data & ((1 << (8 * entry.size)) - 1)).to_bytes(
                entry.size, "little")
            for b in range(lo, hi):
                result[b - address] = data[b - entry.address]
        return int.from_bytes(result, "little")

    def flush_blocks(self, uids):
        doomed = [k for k in self.entries if k[0] in uids]
        for k in doomed:
            del self.entries[k]
        return len(doomed)

    def commit_block(self, uid):
        out = []
        for k in sorted(k for k in self.entries if k[0] == uid):
            entry = self.entries.pop(k)
            if entry.is_store and not entry.nullified:
                out.append(entry)
        return out

    def occupancy(self):
        return len(self.entries)


# few blocks and LSIDs, so blocks fill up (out of LSID order) before
# they commit or flush
_UID = st.integers(0, 3)
_KEY = st.tuples(_UID, st.integers(0, 11))
_ACCESS = st.tuples(st.integers(0x100, 0x11F), st.sampled_from([1, 2, 4, 8]))
_STORE = st.tuples(st.just("store"), _KEY, _ACCESS,
                   st.integers(0, 2**64 - 1), st.booleans())
_LOAD = st.tuples(st.just("load"), _KEY, _ACCESS)
_LSQ_OPS = st.lists(st.one_of(
    _STORE, _STORE, _LOAD, _LOAD,
    st.tuples(st.just("forward"), _KEY, _ACCESS),
    st.tuples(st.just("commit"), _UID),
    st.tuples(st.just("flush"), st.frozensets(_UID, max_size=2))),
    min_size=20, max_size=80)


class TestIndexedMatchesScan:
    """The per-block index changes no answer of the queue."""

    # no explain phase: tracing these long sequences to explain a failure
    # takes minutes and over a gigabyte
    @settings(max_examples=150, deadline=None,
              phases=[p for p in Phase if p is not Phase.explain])
    @given(_LSQ_OPS)
    def test_random_sequences(self, ops):
        indexed, scan = LoadStoreQueue(), _ScanLsq()
        for op in ops:
            outcomes = []
            for lsq in (indexed, scan):
                try:
                    if op[0] == "store":
                        _, key, (addr, size), data, null = op
                        got = lsq.insert_store(key, None if null else addr,
                                               size, data, nullified=null)
                    elif op[0] == "load":
                        _, key, (addr, size) = op
                        got = lsq.insert_load(key, addr, size)
                    elif op[0] == "forward":
                        _, key, (addr, size) = op
                        got = lsq.forward(key, addr, size,
                                          bytes(range(size)))
                    elif op[0] == "commit":
                        got = lsq.commit_block(op[1])
                    else:
                        got = lsq.flush_blocks(op[1])
                except ValueError as exc:
                    got = ("raised", str(exc))
                outcomes.append(got)
            assert outcomes[0] == outcomes[1], op
            assert indexed.entries == scan.entries
            assert indexed.occupancy() == scan.occupancy()
            assert indexed.peak_occupancy == scan.peak_occupancy


class TestDependencePredictor:
    def test_learns_and_clears(self):
        pred = DependencePredictor(bits=64, clear_interval=3)
        assert not pred.predict_dependent(0x100)
        pred.record_violation(0x100)
        assert pred.predict_dependent(0x100)
        # aliasing: addresses sharing the hash bit also defer
        assert pred.predict_dependent(0x100 + 64 * 8)
        for _ in range(3):
            pred.on_block_commit()
        assert not pred.predict_dependent(0x100)
        assert pred.clears == 1

    def test_disabled_never_predicts(self):
        pred = DependencePredictor(enabled=False)
        pred.record_violation(0x100)
        assert not pred.predict_dependent(0x100)
