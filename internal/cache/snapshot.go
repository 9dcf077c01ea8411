package cache

import (
	"fmt"

	"allarm/internal/checkpoint"
	"allarm/internal/mem"
)

// Checkpoint support: a cache's mutable state is its line array (every
// slot, in raw array order — LRU ages and valid bits included, so
// future replacement decisions replay identically), the LRU tick and
// the statistics. The packed tag array is derived state: a way's valid
// bit is written as tags[i] != 0 and the tags are rebuilt on decode. Geometry (sets, ways) comes from construction and is
// only verified.

// EncodeState writes the cache's full mutable state.
func (c *Cache) EncodeState(e *checkpoint.Encoder) {
	e.Section("cache:" + c.name)
	e.U64(c.tick)
	checkpoint.EncodeStruct(e, &c.stats)
	e.Len(len(c.lines))
	for i := range c.lines {
		l := &c.lines[i]
		e.U64(uint64(l.Addr))
		e.U8(uint8(l.State))
		e.Bool(l.Untracked)
		e.U64(l.Version)
		e.Bool(c.tags[i] != 0)
		e.U64(l.lru)
	}
}

// DecodeState overwrites the cache's mutable state from a checkpoint.
// The cache must have the geometry the checkpoint was taken with.
func (c *Cache) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("cache:" + c.name)
	c.tick = d.U64()
	checkpoint.DecodeStruct(d, &c.stats)
	n := d.Len(len(c.lines))
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(c.lines) {
		return fmt.Errorf("cache %s: checkpoint has %d lines, cache has %d", c.name, n, len(c.lines))
	}
	for i := range c.lines {
		l := &c.lines[i]
		l.Addr = mem.PAddr(d.U64())
		l.State = State(d.U8())
		l.Untracked = d.Bool()
		l.Version = d.U64()
		valid := d.Bool()
		l.lru = d.U64()
		c.tags[i] = 0
		if valid {
			c.tags[i] = l.Addr | 1
		}
	}
	return d.Err()
}

// EncodeState writes both levels and the hierarchy counters. The victim
// scratch buffer is transient (consumed within one access) and not part
// of machine state.
func (h *Hierarchy) EncodeState(e *checkpoint.Encoder) {
	e.Section("hier")
	checkpoint.EncodeStruct(e, &h.stats)
	h.l1.EncodeState(e)
	h.l2.EncodeState(e)
}

// DecodeState overwrites both levels and the hierarchy counters.
func (h *Hierarchy) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("hier")
	checkpoint.DecodeStruct(d, &h.stats)
	if err := h.l1.DecodeState(d); err != nil {
		return err
	}
	return h.l2.DecodeState(d)
}
