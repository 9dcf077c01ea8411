package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// FuzzEngineOrder is a differential test of the event queue: it decodes
// the fuzz input into scheduling, run, snapshot/restore and keyed-mode
// operations, applies them to an Engine and to a reference model — a
// plain slice kept sorted by (at, seq) — and checks every fired event,
// Now, Fired and Pending against the model. Delays are drawn from the
// classes the calendar wheel treats specially: zero, within one bucket,
// exactly on a bucket edge, the last wheel bucket, exactly at the
// horizon and beyond it, and same-instant ties.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 9, 2, 0})
	f.Add([]byte{0, 1, 6, 4, 0, 7, 200, 0, 3, 0, 3, 2, 0, 2, 2, 3, 5, 8, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 8, 1, 0, 7, 3, 0, 0, 6, 6, 4, 9, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newOrderHarness(t, data)
		h.run()
	})
}

// orderModel is the reference queue: pending events sorted by (at, seq),
// plus the clock state an Engine must reproduce.
type orderModel struct {
	items      []modelItem
	now        Time
	seq        uint64
	fired      uint64
	keyed      bool
	keyInstant Time
	keyCount   uint64
}

type modelItem struct {
	at  Time
	seq uint64
	id  int
}

// nextSeq mirrors the engine's tie-break assignment: a FIFO counter, or
// in keyed mode the scheduling instant over a per-instant rank.
func (m *orderModel) nextSeq() uint64 {
	if !m.keyed {
		m.seq++
		return m.seq
	}
	if m.now != m.keyInstant {
		m.keyInstant = m.now
		m.keyCount = 0
	}
	m.keyCount++
	return keyedBase(m.now) | m.keyCount
}

func (m *orderModel) insert(it modelItem) {
	m.items = append(m.items, it)
	sort.Slice(m.items, func(i, j int) bool {
		a, b := m.items[i], m.items[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

func (m *orderModel) has(at Time, seq uint64) bool {
	for _, it := range m.items {
		if it.at == at && it.seq == seq {
			return true
		}
	}
	return false
}

// fuzzEvent is one scheduled event. When it fires it checks that it is
// the model's earliest event, then optionally schedules one child (which
// has no children of its own, so every input terminates) and stops the
// run.
type fuzzEvent struct {
	h     *orderHarness
	id    int
	child int // delay class of the child; < 0 for none
	param byte
	stop  bool
}

func (ev *fuzzEvent) Handle(now Time) {
	h := ev.h
	m := &h.m
	if len(m.items) == 0 {
		h.t.Fatalf("event %d fired at %v, model queue is empty", ev.id, now)
	}
	want := m.items[0]
	if want.id != ev.id || want.at != now {
		h.t.Fatalf("fired event %d at %v, model expects event %d at %v", ev.id, now, want.id, want.at)
	}
	if now > h.deadline {
		h.t.Fatalf("event %d fired at %v, beyond the deadline %v", ev.id, now, h.deadline)
	}
	if h.e.Now() != now {
		h.t.Fatalf("Now = %v inside an event firing at %v", h.e.Now(), now)
	}
	m.items = m.items[1:]
	m.now = now
	m.fired++
	h.runFired++
	if ev.child >= 0 {
		h.schedule(h.delay(ev.child, ev.param), -1, 0, false)
	}
	if ev.stop {
		h.e.Stop()
		h.stopped = true
	}
}

// orderHarness drives one engine and the model from the fuzz input.
type orderHarness struct {
	t        *testing.T
	data     []byte
	e        *Engine
	m        orderModel
	nextID   int
	lastAt   Time // most recent scheduling target, for same-instant ties
	deadline Time // events firing beyond it fail (RunUntil)
	runFired uint64
	stopped  bool
}

func newOrderHarness(t *testing.T, data []byte) *orderHarness {
	h := &orderHarness{t: t, data: data, e: &Engine{}}
	h.m.keyInstant = -1
	if h.byte()%2 == 1 {
		h.e.SetKeyed()
		h.m.keyed = true
	}
	return h
}

// byte consumes the next input byte; an exhausted input reads zeros.
func (h *orderHarness) byte() byte {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return b
}

// delay returns a delay from now in one of the wheel's boundary classes.
func (h *orderHarness) delay(class int, p byte) Time {
	now := h.e.Now()
	bucket := now >> wheelShift
	switch class % 8 {
	case 0:
		return 0
	case 1: // within one bucket width
		return 1 + Time(p)*4%(1<<wheelShift-1)
	case 2: // exactly on a later bucket's first picosecond
		return (bucket+1+Time(p%4))<<wheelShift - now
	case 3: // the first far-heap instant
		return (bucket+wheelBuckets)<<wheelShift - now
	case 4: // the wheel's last picosecond
		return (bucket+wheelBuckets)<<wheelShift - 1 - now
	case 5: // well beyond the horizon
		return wheelBuckets<<wheelShift + Time(p)*37<<wheelShift
	case 6: // a tie with the previous scheduling target
		if h.lastAt >= now {
			return h.lastAt - now
		}
		return 0
	default: // anywhere in the first few hundred nanoseconds
		return Time(p) * 1000
	}
}

// schedule adds one event at now+d on both sides.
func (h *orderHarness) schedule(d Time, child int, p byte, stop bool) {
	at := h.e.Now() + d
	ev := &fuzzEvent{h: h, id: h.nextID, child: child, param: p, stop: stop}
	h.nextID++
	h.lastAt = at
	h.e.Schedule(at, ev)
	h.m.insert(modelItem{at: at, seq: h.m.nextSeq(), id: ev.id})
}

func (h *orderHarness) check(op string) {
	h.t.Helper()
	if h.e.Now() != h.m.now || h.e.Fired() != h.m.fired || h.e.Pending() != len(h.m.items) {
		h.t.Fatalf("after %s: engine (now %v, fired %d, pending %d), model (now %v, fired %d, pending %d)",
			op, h.e.Now(), h.e.Fired(), h.e.Pending(), h.m.now, h.m.fired, len(h.m.items))
	}
}

// runChecked runs fn, which fires events up to the deadline (or without
// one), and checks its count and why it returned.
func (h *orderHarness) runChecked(op string, deadline Time, limit uint64, fn func() uint64) {
	h.deadline, h.runFired, h.stopped = deadline, 0, false
	n := fn()
	if n != h.runFired {
		h.t.Fatalf("%s returned %d, %d events fired", op, n, h.runFired)
	}
	if !h.stopped && (limit == 0 || n < limit) && len(h.m.items) > 0 && h.m.items[0].at <= deadline {
		h.t.Fatalf("%s returned with event %d at %v due (deadline %v)", op, h.m.items[0].id, h.m.items[0].at, deadline)
	}
	h.deadline = 1<<63 - 1
}

func (h *orderHarness) run() {
	h.deadline = 1<<63 - 1
	for len(h.data) > 0 {
		switch op := h.byte() % 10; op {
		case 0, 1: // schedule one event, possibly with a child or a stop
			class, p, flags := int(h.byte()), h.byte(), h.byte()
			child := -1
			if flags&1 != 0 {
				child = int(flags >> 1)
			}
			h.schedule(h.delay(class, p), child, flags, flags&0x80 != 0 && flags&1 == 0)
			h.check("Schedule")
		case 2: // Run(limit)
			limit := uint64(h.byte() % 6)
			h.runChecked("Run", 1<<63-1, limit, func() uint64 { return h.e.Run(limit) })
			h.check("Run")
		case 3: // RunUntil(now + delay)
			class, p := int(h.byte()), h.byte()
			deadline := h.e.Now() + h.delay(class, p)
			h.runChecked("RunUntil", deadline, 0, func() uint64 { return h.e.RunUntil(deadline) })
			if !h.stopped && h.m.now < deadline {
				h.m.now = deadline
			}
			h.check("RunUntil")
		case 4: // a burst of same-instant ties
			d := h.delay(int(h.byte()), h.byte())
			for n := int(h.byte()%5) + 2; n > 0; n-- {
				h.schedule(d, -1, 0, false)
			}
			h.check("ties")
		case 5:
			h.e.Drain()
			h.m.items = h.m.items[:0]
			h.check("Drain")
		case 6:
			h.snapshotRestore(h.byte())
			h.check("restore")
		case 7: // KeyedInsert with an explicit key (keyed mode only)
			if !h.m.keyed {
				continue
			}
			at := h.e.Now() + h.delay(int(h.byte()), h.byte())
			key := uint64(h.byte())
			if key%2 == 1 {
				key = 1<<63 | key
			}
			if h.m.has(at, key) {
				continue
			}
			ev := &fuzzEvent{h: h, id: h.nextID, child: -1}
			h.nextID++
			h.e.KeyedInsert(at, key, ev)
			h.m.insert(modelItem{at: at, seq: key, id: ev.id})
			h.check("KeyedInsert")
		case 8: // RewriteSeqs to dense ranks, as a barrier does
			h.rewriteDense()
			h.check("RewriteSeqs")
		case 9: // NextAt agrees with the model's head
			at, ok := h.e.NextAt()
			if ok != (len(h.m.items) > 0) || ok && at != h.m.items[0].at {
				h.t.Fatalf("NextAt = (%v, %v), model head %v", at, ok, h.m.items)
			}
		}
	}
	for h.e.Pending() > 0 {
		h.runChecked("final Run", 1<<63-1, 0, func() uint64 { return h.e.Run(0) })
	}
	h.check("final Run")
}

// rank maps each pending (at, seq) to its 1-based position in model
// order: an order-preserving rewrite that stays below every future key.
func (h *orderHarness) rank() map[modelItem]uint64 {
	r := make(map[modelItem]uint64, len(h.m.items))
	for i, it := range h.m.items {
		r[modelItem{at: it.at, seq: it.seq}] = uint64(i + 1)
	}
	return r
}

func (h *orderHarness) rewriteDense() {
	r := h.rank()
	h.e.RewriteSeqs(func(at Time, seq uint64) uint64 {
		k, ok := r[modelItem{at: at, seq: seq}]
		if !ok {
			h.t.Fatalf("RewriteSeqs visited (%v, %d), not in the model", at, seq)
		}
		return k
	})
	for i := range h.m.items {
		h.m.items[i].seq = uint64(i + 1)
	}
}

// snapshotRestore captures the queue through ForEachPending, checks it
// against the model, and rebuilds it on a fresh engine in shuffled
// order. Keyed engines restore dense ranks, as a sharded machine does.
func (h *orderHarness) snapshotRestore(seed byte) {
	type pending struct {
		at  Time
		seq uint64
		ev  *fuzzEvent
	}
	var snap []pending
	h.e.ForEachPending(func(at Time, seq uint64, hd Handler) {
		snap = append(snap, pending{at, seq, hd.(*fuzzEvent)})
	})
	if len(snap) != len(h.m.items) {
		h.t.Fatalf("ForEachPending visited %d events, model has %d", len(snap), len(h.m.items))
	}
	byKey := make(map[modelItem]int, len(snap))
	for _, it := range h.m.items {
		byKey[modelItem{at: it.at, seq: it.seq}] = it.id
	}
	for _, p := range snap {
		id, ok := byKey[modelItem{at: p.at, seq: p.seq}]
		if !ok || id != p.ev.id {
			h.t.Fatalf("ForEachPending visited (%v, %d, event %d), not in the model", p.at, p.seq, p.ev.id)
		}
		delete(byKey, modelItem{at: p.at, seq: p.seq})
	}
	seq := h.e.Seq()
	if h.m.keyed {
		r := h.rank()
		for i := range snap {
			snap[i].seq = r[modelItem{at: snap[i].at, seq: snap[i].seq}]
		}
		for i := range h.m.items {
			h.m.items[i].seq = uint64(i + 1)
		}
		seq = max(seq, uint64(len(snap)))
		h.m.keyInstant, h.m.keyCount = -1, 0
	}
	rand.New(rand.NewPCG(uint64(seed), 0)).Shuffle(len(snap), func(i, j int) { snap[i], snap[j] = snap[j], snap[i] })

	e := &Engine{}
	if h.m.keyed {
		e.SetKeyed()
	}
	if err := e.RestoreClock(h.e.Now(), seq, h.e.Fired()); err != nil {
		h.t.Fatal(err)
	}
	for _, p := range snap {
		if err := e.RestorePending(p.at, p.seq, p.ev); err != nil {
			h.t.Fatal(err)
		}
	}
	h.e = e
}
