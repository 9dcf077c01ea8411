package core

import (
	"fmt"
	"sort"

	"allarm/internal/cache"
	"allarm/internal/checkpoint"
	"allarm/internal/coherence"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Checkpoint support for the directory controller. A directory's live
// state is its probe filter, the DRAM version shadow, the per-line
// transaction table (busy) with each transaction's waiter queue, plus
// the occupancy clock and counters. Each in-flight transaction owns at
// most one request message and its queued requests, and each pending
// evAck event owns its ack — so messages serialize inline with exactly
// one owner and restore without pools. The busy table's slot layout is
// not state: transactions are written sorted by address, then the
// non-empty waiter queues in the same order.
//
// Stale events need care: a dirEvent whose transaction restarted (new
// id) or finished must still fire and drop itself, because dropped
// events count toward the engine's fired total and the budget
// accounting must replay bit-identically. Decode therefore binds an
// event to the live busy[addr] transaction when one exists (an id
// mismatch then reproduces the drop), and to a dummy transaction with
// id 0 otherwise — real ids start at 1, so the pointer/id check in
// Handle discards it exactly as the original would have been.

// PolicyStateCodec is implemented by stateful allocation policies that
// need their decision state carried across a checkpoint (for example, a
// policy that remembers which lines have proven sharing). Stateless
// policies need not implement it.
type PolicyStateCodec interface {
	// SavePolicyState returns an opaque, deterministic serialization of
	// the policy's mutable state.
	SavePolicyState() ([]byte, error)
	// LoadPolicyState overwrites the policy's mutable state.
	LoadPolicyState(data []byte) error
}

// DirEventOwner reports whether h is a directory event record and, if
// so, which node's directory owns it.
func DirEventOwner(h sim.Handler) (mem.NodeID, bool) {
	if ev, ok := h.(*dirEvent); ok {
		return ev.d.cfg.Node, true
	}
	return 0, false
}

// EncodeEvent writes the payload of a pending directory event owned by
// this controller (the owning node is written by the caller).
func (d *DirCtrl) EncodeEvent(e *checkpoint.Encoder, h sim.Handler) {
	ev := h.(*dirEvent)
	e.U8(ev.kind)
	if ev.kind == evAck {
		coherence.EncodeMsg(e, ev.m)
		return
	}
	// The transaction is identified by address and id; decode re-binds
	// it to the restored busy table.
	e.U64(uint64(ev.t.addr))
	e.U64(ev.id)
}

// DecodeEvent rebuilds a pending directory event for this controller.
// It must run after DecodeState so the busy table is populated.
func (d *DirCtrl) DecodeEvent(dec *checkpoint.Decoder) (sim.Handler, error) {
	kind := dec.U8()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	ev := d.events.Get()
	ev.d, ev.kind = d, kind
	if kind == evAck {
		m := coherence.DecodeMsg(dec)
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if m == nil {
			return nil, fmt.Errorf("core: pending ack event without a message")
		}
		ev.m = m
		return ev, nil
	}
	if kind > evRetry {
		return nil, fmt.Errorf("core: unknown directory event kind %d", kind)
	}
	addr := mem.PAddr(dec.U64())
	id := dec.U64()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if t := d.busy.get(addr); t != nil {
		// Bind to the live transaction. If the encoded id differs (the
		// txn restarted before the snapshot), Handle's id check drops
		// the event exactly as it would have in the original run.
		ev.t, ev.id = t, id
		return ev, nil
	}
	// The transaction finished before the snapshot: the event was stale
	// when captured. A placeholder with id 0 (real ids start at 1) can
	// never match a busy entry, so Handle drops it while still counting
	// it as fired.
	ph := d.txns.Get()
	*ph = txn{addr: addr}
	ev.t, ev.id = ph, id
	return ev, nil
}

// EncodeState writes the directory's full mutable state. The DRAM
// version map and the busy transactions are emitted in ascending
// address order so the byte stream is deterministic.
func (d *DirCtrl) EncodeState(e *checkpoint.Encoder) error {
	e.Section("dirctrl")

	// Allocation policy: name always (verified on decode), state only
	// when the policy is stateful.
	e.String(d.alloc.Name())
	if codec, ok := d.alloc.(PolicyStateCodec); ok {
		state, err := codec.SavePolicyState()
		if err != nil {
			return fmt.Errorf("core: policy %q state: %w", d.alloc.Name(), err)
		}
		e.Bool(true)
		e.Bytes(state)
	} else {
		e.Bool(false)
	}

	e.I64(int64(d.nextFree))
	e.U64(d.txnSeq)
	checkpoint.EncodeStruct(e, &d.stats)

	// Probe filter: every slot in raw array order (valid bits and LRU
	// ages included, so replacement replays identically).
	e.Section("pf")
	e.U64(d.pf.tick)
	checkpoint.EncodeStruct(e, &d.pf.stats)
	e.Len(len(d.pf.entries))
	for i := range d.pf.entries {
		en := &d.pf.entries[i]
		e.U64(uint64(en.Addr))
		e.U8(uint8(en.State))
		e.I64(int64(en.Owner))
		e.Bool(en.valid)
		e.U64(en.lru)
	}

	// DRAM version shadow.
	e.Section("dramver")
	addrs := make([]mem.PAddr, 0, len(d.dramVer))
	for a := range d.dramVer {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.Len(len(addrs))
	for _, a := range addrs {
		e.U64(uint64(a))
		e.U64(d.dramVer[a])
	}

	// Busy transactions.
	e.Section("busy")
	busy := make([]*txn, 0, d.busy.len())
	d.busy.each(func(t *txn) { busy = append(busy, t) })
	sort.Slice(busy, func(i, j int) bool { return busy[i].addr < busy[j].addr })
	e.Len(len(busy))
	queued := 0
	for _, t := range busy {
		encodeTxn(e, t)
		if len(t.waiters) > 0 {
			queued++
		}
	}

	// Waiter queues (FIFO order preserved within each queue).
	e.Section("waiters")
	e.Len(queued)
	for _, t := range busy {
		if len(t.waiters) == 0 {
			continue
		}
		e.U64(uint64(t.addr))
		e.Len(len(t.waiters))
		for _, m := range t.waiters {
			coherence.EncodeMsg(e, m)
		}
	}
	return nil
}

// DecodeState overwrites the directory's mutable state. The controller
// must have been constructed with the same configuration (node, probe
// filter geometry, allocation policy) the checkpoint was taken with.
func (d *DirCtrl) DecodeState(dec *checkpoint.Decoder) error {
	dec.Expect("dirctrl")

	name := dec.String()
	hasPolState := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if name != d.alloc.Name() {
		return fmt.Errorf("core: checkpoint policy %q, directory has %q", name, d.alloc.Name())
	}
	if hasPolState {
		state := dec.Bytes()
		if err := dec.Err(); err != nil {
			return err
		}
		codec, ok := d.alloc.(PolicyStateCodec)
		if !ok {
			return fmt.Errorf("core: checkpoint carries state for policy %q, which has none", name)
		}
		if err := codec.LoadPolicyState(state); err != nil {
			return fmt.Errorf("core: policy %q state: %w", name, err)
		}
	}

	d.nextFree = sim.Time(dec.I64())
	d.txnSeq = dec.U64()
	checkpoint.DecodeStruct(dec, &d.stats)

	dec.Expect("pf")
	d.pf.tick = dec.U64()
	checkpoint.DecodeStruct(dec, &d.pf.stats)
	n := dec.Len(len(d.pf.entries))
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(d.pf.entries) {
		return fmt.Errorf("core: checkpoint has %d probe-filter entries, filter has %d", n, len(d.pf.entries))
	}
	for i := range d.pf.entries {
		en := &d.pf.entries[i]
		en.Addr = mem.PAddr(dec.U64())
		en.State = EntryState(dec.U8())
		en.Owner = mem.NodeID(dec.I64())
		en.valid = dec.Bool()
		en.lru = dec.U64()
	}

	dec.Expect("dramver")
	n = dec.Len(maxTableEntries)
	if err := dec.Err(); err != nil {
		return err
	}
	d.dramVer = make(map[mem.PAddr]uint64, n)
	for i := 0; i < n; i++ {
		a := mem.PAddr(dec.U64())
		d.dramVer[a] = dec.U64()
	}

	dec.Expect("busy")
	n = dec.Len(maxTableEntries)
	if err := dec.Err(); err != nil {
		return err
	}
	d.busy = busyTable{}
	for i := 0; i < n; i++ {
		t := d.txns.Get()
		decodeTxn(dec, t)
		if err := dec.Err(); err != nil {
			return err
		}
		if d.busy.get(t.addr) != nil {
			return fmt.Errorf("core: checkpoint has two busy transactions for %#x", uint64(t.addr))
		}
		d.busy.put(t)
	}

	dec.Expect("waiters")
	n = dec.Len(maxTableEntries)
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		a := mem.PAddr(dec.U64())
		q := dec.Len(maxTableEntries)
		if err := dec.Err(); err != nil {
			return err
		}
		t := d.busy.get(a)
		if t == nil {
			return fmt.Errorf("core: checkpoint has a waiter queue for idle line %#x", uint64(a))
		}
		if len(t.waiters) > 0 {
			return fmt.Errorf("core: checkpoint has two waiter queues for %#x", uint64(a))
		}
		for j := 0; j < q; j++ {
			m := coherence.DecodeMsg(dec)
			if err := dec.Err(); err != nil {
				return err
			}
			if m == nil {
				return fmt.Errorf("core: nil message in waiter queue for %#x", uint64(a))
			}
			t.waiters = append(t.waiters, m)
		}
	}
	return dec.Err()
}

// maxTableEntries bounds decoded map sizes against corrupt counts; far
// above anything a real machine produces (tables are bounded by the
// probe filter and per-line serialization).
const maxTableEntries = 1 << 24

func encodeTxn(e *checkpoint.Encoder, t *txn) {
	e.U64(t.id)
	e.U8(uint8(t.kind))
	e.U64(uint64(t.addr))
	coherence.EncodeMsg(e, t.req)
	e.Bool(t.counted)
	e.I64(int64(t.pendingAcks))
	e.I64(int64(t.expectOwner))
	e.Bool(t.haveExpect)
	e.Bool(t.directed)
	e.Bool(t.needData)
	e.U8(uint8(t.grant))
	e.Bool(t.dramDone)
	e.I64(int64(t.dramDoneAt))
	e.Bool(t.dataSent)
	e.Bool(t.dataForwarded)
	e.Bool(t.cmpReceived)
	e.Bool(t.parked)
	e.Bool(t.entryTouched)
	e.I64(int64(t.putSrc))
	e.Bool(t.localProbe)
	e.Bool(t.localProbeDone)
	e.Bool(t.localProbeHit)
	e.I64(int64(t.localProbeAt))
	e.Bool(t.untracked)
	e.Bool(t.noFill)
	e.Bool(t.decided)
	e.U8(uint8(t.action))
	e.Bool(t.finalValid)
	e.U8(uint8(t.finalState))
	e.I64(int64(t.finalOwner))
}

func decodeTxn(d *checkpoint.Decoder, t *txn) {
	*t = txn{}
	t.id = d.U64()
	t.kind = txnKind(d.U8())
	t.addr = mem.PAddr(d.U64())
	t.req = coherence.DecodeMsg(d)
	t.counted = d.Bool()
	t.pendingAcks = int(d.I64())
	t.expectOwner = mem.NodeID(d.I64())
	t.haveExpect = d.Bool()
	t.directed = d.Bool()
	t.needData = d.Bool()
	t.grant = cache.State(d.U8())
	t.dramDone = d.Bool()
	t.dramDoneAt = sim.Time(d.I64())
	t.dataSent = d.Bool()
	t.dataForwarded = d.Bool()
	t.cmpReceived = d.Bool()
	t.parked = d.Bool()
	t.entryTouched = d.Bool()
	t.putSrc = mem.NodeID(d.I64())
	t.localProbe = d.Bool()
	t.localProbeDone = d.Bool()
	t.localProbeHit = d.Bool()
	t.localProbeAt = sim.Time(d.I64())
	t.untracked = d.Bool()
	t.noFill = d.Bool()
	t.decided = d.Bool()
	t.action = MissAction(d.U8())
	t.finalValid = d.Bool()
	t.finalState = EntryState(d.U8())
	t.finalOwner = mem.NodeID(d.I64())
}
