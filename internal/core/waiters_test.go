package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"allarm/internal/cache"
	"allarm/internal/checkpoint"
	"allarm/internal/coherence"
	"allarm/internal/dram"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// The tests below drive one home directory (node 0 of a 4-node machine)
// through a scripted request mix. The other controllers are modelled by
// dirHarness: each node's cache is a map of held line states that
// answers probes, forwards owner data and acknowledges fills, and every
// message crosses a fixed-latency network. Each node requests each line
// at most once and never evicts, so no flow waits on a writeback.

const (
	hNodes   = 4
	hLines   = 6
	hLatency = 7 * sim.Nanosecond
)

type dirHarness struct {
	eng  sim.Engine
	dir  *DirCtrl
	dram *dram.Controller
	held [hNodes]map[mem.PAddr]cache.State
	pool coherence.MsgPool
	log  []string // every delivered message, in delivery order
}

// hop is a message in flight on the harness network.
type hop struct {
	h *dirHarness
	m *Msg
}

func (e *hop) Handle(now sim.Time) { e.h.deliver(now, e.m) }

func newDirHarness() *dirHarness {
	h := &dirHarness{dram: dram.New(40*sim.Nanosecond, 2*sim.Nanosecond)}
	// Two probe-filter entries for six lines: evictions are constant.
	pf := NewProbeFilter(2*mem.LineBytes, 2)
	h.dir = NewDirCtrl(Config{
		Node: 0, Nodes: hNodes, Alloc: NewAllocPolicy(Baseline, nil),
		LookupLatency: sim.Nanosecond,
	}, pf, &h.eng, h, h.dram)
	for n := range h.held {
		h.held[n] = map[mem.PAddr]cache.State{}
	}
	return h
}

// Send implements coherence.Port.
func (h *dirHarness) Send(m *Msg) { h.eng.Schedule(h.eng.Now()+hLatency, &hop{h, m}) }

// script queues every (node, line) request once, in a seeded order and
// at seeded times within 400 ns, with stores for about half.
func (h *dirHarness) script(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(hNodes * hLines)
	for _, k := range order {
		m := &Msg{Op: coherence.GetS, Addr: line(k % hLines), Src: mem.NodeID(k / hLines), ToDir: true}
		if rng.Intn(2) == 0 {
			m.Op = coherence.GetM
		}
		h.eng.Schedule(sim.Time(rng.Intn(400))*sim.Nanosecond, &hop{h, m})
	}
}

func (h *dirHarness) deliver(now sim.Time, m *Msg) {
	h.log = append(h.log, fmt.Sprintf("%v %v mode=%v fwd=%d grant=%v untracked=%v nofill=%v hit=%v prev=%v dirty=%v version=%d txn=%d",
		now, m, m.Mode, m.ForwardTo, m.Grant, m.Untracked, m.NoFill, m.Hit, m.PrevState, m.Dirty, m.Version, m.TxnID))
	if m.ToDir {
		h.dir.HandleMsg(now, m)
		return
	}
	n := m.Dst
	switch m.Op {
	case coherence.DataMsg:
		if !m.NoFill {
			h.held[n][m.Addr] = m.Grant
		}
		h.reply(coherence.CmpAck, n, m)
	case coherence.PrbInv, coherence.PrbDown, coherence.PrbLocal:
		prev := h.held[n][m.Addr]
		if m.Op == coherence.PrbInv || (m.Op == coherence.PrbLocal && m.Mode == coherence.GetM) {
			delete(h.held[n], m.Addr)
		} else if prev == cache.Modified {
			h.held[n][m.Addr] = cache.Owned
		} else if prev == cache.Exclusive {
			h.held[n][m.Addr] = cache.Shared
		}
		owner := prev == cache.Modified || prev == cache.Owned || prev == cache.Exclusive
		ack := h.reply(coherence.Ack, n, m)
		ack.Hit, ack.PrevState = prev.Valid(), prev
		if owner && m.ForwardTo != coherence.NoNode {
			d := h.pool.Get()
			d.Op, d.Addr, d.Src, d.Dst = coherence.DataMsg, m.Addr, n, m.ForwardTo
			d.Grant, d.TxnID, d.NoFill = m.Grant, m.TxnID, m.NoFill
			h.Send(d)
		} else if owner && prev.Dirty() {
			ack.Op, ack.Dirty = coherence.AckData, true
		}
	default:
		panic(fmt.Sprintf("harness cache %d received %v", n, m))
	}
	m.Release()
}

// reply sends a directory-bound response from node n to m and returns
// it for further filling (the send is queued, not yet delivered).
func (h *dirHarness) reply(op coherence.Op, n mem.NodeID, m *Msg) *Msg {
	r := h.pool.Get()
	r.Op, r.Addr, r.Src, r.Dst, r.ToDir, r.TxnID = op, m.Addr, n, h.dir.Node(), true, m.TxnID
	h.Send(r)
	return r
}

// queued reports the deepest waiter queue behind a request transaction
// and the deepest behind an eviction transaction.
func (h *dirHarness) queued() (behindRequest, behindEviction int) {
	h.dir.busy.each(func(t *txn) {
		if t.kind == txnEviction {
			behindEviction = max(behindEviction, len(t.waiters))
		} else {
			behindRequest = max(behindRequest, len(t.waiters))
		}
	})
	return
}

// snapshot encodes the directory, its DRAM controller, the harness
// caches and every pending event.
func (h *dirHarness) snapshot(t *testing.T) []byte {
	t.Helper()
	e := checkpoint.NewEncoder("harness")
	if err := h.dir.EncodeState(e); err != nil {
		t.Fatal(err)
	}
	h.dram.EncodeState(e)
	for _, held := range h.held {
		addrs := make([]mem.PAddr, 0, len(held))
		for a := range held {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		e.Len(len(addrs))
		for _, a := range addrs {
			e.U64(uint64(a))
			e.U8(uint8(held[a]))
		}
	}
	e.I64(int64(h.eng.Now()))
	e.U64(h.eng.Seq())
	e.U64(h.eng.Fired())
	// Pending events in seq order (seqs are unique): a restored engine
	// may hold them in a different internal layout.
	type pending struct {
		at  sim.Time
		seq uint64
		h   sim.Handler
	}
	var evs []pending
	h.eng.ForEachPending(func(at sim.Time, seq uint64, hd sim.Handler) {
		evs = append(evs, pending{at, seq, hd})
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	e.Len(len(evs))
	for _, ev := range evs {
		e.I64(int64(ev.at))
		e.U64(ev.seq)
		if hp, ok := ev.h.(*hop); ok {
			e.Bool(true)
			coherence.EncodeMsg(e, hp.m)
			continue
		}
		e.Bool(false)
		h.dir.EncodeEvent(e, ev.h)
	}
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restore rebuilds a harness from snapshot.
func restoreDirHarness(t *testing.T, blob []byte) *dirHarness {
	t.Helper()
	h := newDirHarness()
	d, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.dir.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := h.dram.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	for n := range h.held {
		for i, k := 0, d.Len(hLines); i < k; i++ {
			a := mem.PAddr(d.U64())
			h.held[n][a] = cache.State(d.U8())
		}
	}
	now, seq, fired := sim.Time(d.I64()), d.U64(), d.U64()
	if err := h.eng.RestoreClock(now, seq, fired); err != nil {
		t.Fatal(err)
	}
	for i, k := 0, d.Len(1<<16); i < k; i++ {
		at, seq := sim.Time(d.I64()), d.U64()
		var hd sim.Handler
		if d.Bool() {
			hd = &hop{h, coherence.DecodeMsg(d)}
		} else if hd, err = h.dir.DecodeEvent(d); err != nil {
			t.Fatal(err)
		}
		if err := h.eng.RestorePending(at, seq, hd); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return h
}

// final is everything a finished harness run is compared on.
type harnessFinal struct {
	Now     sim.Time
	Fired   uint64
	Stats   DirStats
	PF      []Entry
	DRAMVer map[mem.PAddr]uint64
	Held    [hNodes]map[mem.PAddr]cache.State
}

func (h *dirHarness) final(t *testing.T) harnessFinal {
	t.Helper()
	if !h.dir.Quiesced() {
		t.Fatal("run ended with busy lines")
	}
	return harnessFinal{
		Now: h.eng.Now(), Fired: h.eng.Fired(), Stats: h.dir.Stats(),
		PF: append([]Entry(nil), h.dir.pf.entries...), DRAMVer: h.dir.dramVer, Held: h.held,
	}
}

// TestSnapshotWithQueuedWaiters checkpoints a directory while one line
// has at least two requests queued behind a request transaction and
// another has a request queued behind an eviction, then checks that the
// restored directory finishes exactly like the uninterrupted one.
func TestSnapshotWithQueuedWaiters(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		h := newDirHarness()
		h.script(seed)
		found := false
		for h.eng.Pending() > 0 {
			h.eng.Run(1)
			if r, e := h.queued(); r >= 2 && e >= 1 {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		blob := h.snapshot(t)
		prefix := len(h.log)
		restored := restoreDirHarness(t, blob)
		if again := restored.snapshot(t); !bytes.Equal(again, blob) {
			t.Fatalf("seed %d: re-encoding the restored directory changed the checkpoint", seed)
		}
		h.eng.Run(0)
		restored.eng.Run(0)
		if want, got := h.log[prefix:], restored.log; !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: restored run delivered\n%s\nwant\n%s", seed,
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if want, got := h.final(t), restored.final(t); !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: restored run ended in\n%+v\nwant\n%+v", seed, got, want)
		}
		if want := h.dir.Stats(); want.LocalRequests+want.RemoteRequests != hNodes*hLines {
			t.Fatalf("seed %d: %d requests served, want %d", seed, want.LocalRequests+want.RemoteRequests, hNodes*hLines)
		}
		return
	}
	t.Fatal("no seed reached two queued requests behind a request and one behind an eviction")
}

// rewriteBlob applies fn to a checkpoint's payload and re-frames it
// with a fresh CRC, so decoders see a well-formed but inconsistent
// checkpoint.
func rewriteBlob(t *testing.T, blob []byte, fn func(payload []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	payload := out[:len(out)-4]
	fn(payload)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// decodeDir decodes a directory checkpoint into a fresh directory,
// failing the test on a panic.
func decodeDir(t *testing.T, blob []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("DecodeState panicked: %v", r)
		}
	}()
	d, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return newDirHarness().dir.DecodeState(d)
}

func TestDecodeRejectsInconsistentBusyTable(t *testing.T) {
	req := func(a mem.PAddr, src mem.NodeID) *Msg {
		return &Msg{Op: coherence.GetS, Addr: a, Src: src, ToDir: true}
	}
	encode := func(h *dirHarness) []byte {
		e := checkpoint.NewEncoder("harness")
		if err := h.dir.EncodeState(e); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Close(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Two transactions on one line: inserted under distinct addresses,
	// then one is re-pointed so the encoder writes both for line 1.
	h := newDirHarness()
	t1, t2 := h.dir.newTxn(txnRequest, line(1)), h.dir.newTxn(txnRequest, line(2))
	t1.req, t2.req = req(line(1), 1), req(line(2), 2)
	h.dir.busy.put(t1)
	h.dir.busy.put(t2)
	t2.addr = line(1)
	if err := decodeDir(t, encode(h)); err == nil || !strings.Contains(err.Error(), "two busy transactions") {
		t.Fatalf("duplicate busy line: err = %v", err)
	}

	// A waiter queue for a line with no transaction: a valid checkpoint
	// with a queue on line 1, whose queue address is rewritten to line 3.
	h = newDirHarness()
	t1 = h.dir.newTxn(txnRequest, line(1))
	t1.req = req(line(1), 1)
	t1.waiters = append(t1.waiters, req(line(1), 2), req(line(1), 3))
	h.dir.busy.put(t1)
	blob := encode(h)
	if err := decodeDir(t, blob); err != nil {
		t.Fatalf("consistent checkpoint rejected: %v", err)
	}
	blob = rewriteBlob(t, blob, func(p []byte) {
		marker := []byte("waiters")
		i := bytes.LastIndex(p, marker)
		if i < 0 {
			t.Fatal("no waiters section")
		}
		at := i + len(marker) + 8 // past the queue count
		if got := mem.PAddr(binary.LittleEndian.Uint64(p[at:])); got != line(1) {
			t.Fatalf("queue address %#x, want line 1", uint64(got))
		}
		binary.LittleEndian.PutUint64(p[at:], uint64(line(3)))
	})
	if err := decodeDir(t, blob); err == nil || !strings.Contains(err.Error(), "idle line") {
		t.Fatalf("waiter queue on an idle line: err = %v", err)
	}
}
