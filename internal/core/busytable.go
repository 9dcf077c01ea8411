package core

import (
	"math/bits"

	"allarm/internal/mem"
)

// busyTable maps line addresses to their in-flight transactions: an
// open-addressed hash table with linear probing and backward-shift
// deletion (no tombstones), keyed by txn.addr. A directory has at most a
// few dozen busy lines, so the table stays at its initial 64 slots and a
// lookup touches a host cache line or two, where a Go map walks buckets.
type busyTable struct {
	slots []*txn // power-of-two length; nil marks an empty slot
	shift uint   // 64 - log2(len(slots)): hash to slot index
	n     int
}

// busyTableMinSlots is the table's size at its first insertion.
const busyTableMinSlots = 64

// home returns the slot a line address hashes to (Fibonacci hashing of
// the line number, so strided addresses spread across the table).
func (b *busyTable) home(addr mem.PAddr) int {
	return int((uint64(addr) / mem.LineBytes * 0x9E3779B97F4A7C15) >> b.shift)
}

// len returns the number of busy lines.
func (b *busyTable) len() int { return b.n }

// get returns the transaction busy on addr, or nil.
func (b *busyTable) get(addr mem.PAddr) *txn {
	if b.n == 0 {
		return nil
	}
	mask := len(b.slots) - 1
	for i := b.home(addr); ; i = (i + 1) & mask {
		t := b.slots[i]
		if t == nil || t.addr == addr {
			return t
		}
	}
}

// put makes t the transaction busy on t.addr, replacing any other.
func (b *busyTable) put(t *txn) {
	if (b.n+1)*2 > len(b.slots) {
		b.grow()
	}
	mask := len(b.slots) - 1
	for i := b.home(t.addr); ; i = (i + 1) & mask {
		cur := b.slots[i]
		if cur == nil {
			b.slots[i] = t
			b.n++
			return
		}
		if cur.addr == t.addr {
			b.slots[i] = t
			return
		}
	}
}

// del removes addr's transaction, if any. Later entries of the probe run
// shift back into the hole unless that would move them before their home
// slot, so every remaining entry stays reachable without tombstones.
func (b *busyTable) del(addr mem.PAddr) {
	if b.n == 0 {
		return
	}
	mask := len(b.slots) - 1
	i := b.home(addr)
	for {
		t := b.slots[i]
		if t == nil {
			return
		}
		if t.addr == addr {
			break
		}
		i = (i + 1) & mask
	}
	b.n--
	for j := i; ; {
		b.slots[i] = nil
		for {
			j = (j + 1) & mask
			t := b.slots[j]
			if t == nil {
				return
			}
			// t may fill the hole at i only if its home slot does not
			// lie cyclically in (i, j].
			if h := b.home(t.addr); (j-h)&mask >= (j-i)&mask {
				b.slots[i] = t
				i = j
				break
			}
		}
	}
}

// grow doubles the table (or allocates it) and reinserts every entry.
func (b *busyTable) grow() {
	old := b.slots
	size := 2 * len(old)
	if size < busyTableMinSlots {
		size = busyTableMinSlots
	}
	b.slots = make([]*txn, size)
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	b.n = 0
	for _, t := range old {
		if t != nil {
			b.put(t)
		}
	}
}

// each calls fn for every busy transaction, in slot order.
func (b *busyTable) each(fn func(*txn)) {
	for _, t := range b.slots {
		if t != nil {
			fn(t)
		}
	}
}
