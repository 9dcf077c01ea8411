package sim

import (
	"strings"
	"testing"
)

// Keyed tie-break mode is the engine half of the parallel (PDES)
// machine: provisional per-engine keys keep same-tile events in serial
// relative order inside a window, and the window log carries enough
// structure for the barrier to reconstruct the exact serial order
// afterwards. These tests pin the key layout, the log format, and the
// rewrite hook the system layer's replay merge depends on.

func pendingKeys(e *Engine) (ats []Time, seqs []uint64) {
	e.ForEachPending(func(at Time, seq uint64, h Handler) {
		ats = append(ats, at)
		seqs = append(seqs, seq)
	})
	return
}

func TestKeyedSameInstantKeepsSchedulingOrder(t *testing.T) {
	var e Engine
	e.SetKeyed()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(100, HandlerFunc(func(Time) { order = append(order, i) }))
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestKeyedOrdersByInstantAcrossEngines(t *testing.T) {
	// Two shard engines schedule an event for the same timestamp at
	// different instants. Their keys must compare the way one serial
	// engine's FIFO counter would: earlier scheduling instant first,
	// regardless of which engine assigned the key. (Cross-engine
	// same-instant collisions are the replay merge's job, but the
	// instant ordering lets barriers and seed capture sort coarsely.)
	var a, b Engine
	a.SetKeyed()
	b.SetKeyed()
	a.Schedule(0, HandlerFunc(func(Time) { a.Schedule(100, HandlerFunc(func(Time) {})) }))
	b.Schedule(0, HandlerFunc(func(Time) {}))
	a.RunUntil(20)
	b.RunUntil(20)
	b.Schedule(100, HandlerFunc(func(Time) {})) // scheduled at instant 20, not 0

	_, aSeqs := pendingKeys(&a)
	_, bSeqs := pendingKeys(&b)
	if len(aSeqs) != 1 || len(bSeqs) != 1 {
		t.Fatalf("expected one pending event per engine, got %d and %d", len(aSeqs), len(bSeqs))
	}
	if aSeqs[0] >= bSeqs[0] {
		t.Fatalf("instant-0 key %#x does not precede instant-20 key %#x", aSeqs[0], bSeqs[0])
	}
}

func TestWindowLogRecordsDispatchesAndChildren(t *testing.T) {
	// One window: a seed event at t=10 schedules a local child at t=40
	// and stages an external send (index 3) between two local calls.
	// The log must hold one entry per dispatch with the children in
	// call order, external actions interleaved at their positions.
	var e Engine
	e.SetKeyed()
	e.Schedule(10, HandlerFunc(func(Time) {
		e.Schedule(40, HandlerFunc(func(Time) {}))
		e.LogExternal(3)
		e.Schedule(50, HandlerFunc(func(Time) {}))
	}))
	e.BeginWindowLog()
	e.RunUntil(20)
	entries, kids := e.EndWindowLog()

	if len(entries) != 1 {
		t.Fatalf("logged %d dispatches, want 1", len(entries))
	}
	if entries[0].At != 10 || entries[0].Kids != 0 {
		t.Fatalf("entry = %+v, want At=10 Kids=0", entries[0])
	}
	if len(kids) != 3 {
		t.Fatalf("logged %d scheduling calls, want 3", len(kids))
	}
	if kids[0].Ext >= 0 || kids[0].At != 40 {
		t.Fatalf("first child = %+v, want local at t=40", kids[0])
	}
	if kids[1].Ext != 3 {
		t.Fatalf("second child = %+v, want external index 3", kids[1])
	}
	if kids[2].Ext >= 0 || kids[2].At != 50 {
		t.Fatalf("third child = %+v, want local at t=50", kids[2])
	}
	// The logged (At, Seq) identities must match the pending items.
	ats, seqs := pendingKeys(&e)
	for i, k := range []LogChild{kids[0], kids[2]} {
		found := false
		for j := range ats {
			if ats[j] == k.At && seqs[j] == k.Seq {
				found = true
			}
		}
		if !found {
			t.Fatalf("logged child %d (%v, %#x) not found among pending items (%v, %#x)",
				i, k.At, k.Seq, ats, seqs)
		}
	}
}

func TestWindowLogEntriesAreSorted(t *testing.T) {
	// Replay looks dispatch records up by binary search, so entries
	// must come out in sorted (At, Seq) order — which dispatch order
	// inside a window is, since keys grow with the instant and rank.
	var e Engine
	e.SetKeyed()
	for i := 0; i < 4; i++ {
		e.Schedule(Time(10+i%2), HandlerFunc(func(now Time) {
			if now < 15 {
				e.Schedule(now+5, HandlerFunc(func(Time) {}))
			}
		}))
	}
	e.BeginWindowLog()
	e.RunUntil(100)
	entries, _ := e.EndWindowLog()
	if len(entries) < 8 {
		t.Fatalf("logged %d dispatches, want at least 8", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		a, b := &entries[i-1], &entries[i]
		if a.At > b.At || (a.At == b.At && a.Seq >= b.Seq) {
			t.Fatalf("entries %d..%d out of (At, Seq) order: %+v then %+v", i-1, i, *a, *b)
		}
	}
}

func TestBeginWindowLogOnSerialEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BeginWindowLog on a non-keyed engine did not panic")
		}
	}()
	var e Engine
	e.BeginWindowLog()
}

func TestRewriteSeqsReplacesPendingKeys(t *testing.T) {
	// RewriteSeqs maps every pending (at, seq) through the barrier's
	// rank function; an order-preserving mapping must keep pop order.
	var e Engine
	e.SetKeyed()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Schedule(100, HandlerFunc(func(Time) { order = append(order, i) }))
	}
	_, before := pendingKeys(&e)
	e.RewriteSeqs(func(at Time, seq uint64) uint64 {
		for i, s := range before {
			if s == seq && at == 100 {
				return uint64(i + 1) // dense ranks, same relative order
			}
		}
		t.Fatalf("RewriteSeqs visited unknown key (%v, %#x)", at, seq)
		return 0
	})
	_, after := pendingKeys(&e)
	for i, s := range after {
		if s != uint64(i+1) {
			t.Fatalf("pending keys after rewrite = %v, want dense ranks", after)
		}
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("events fired out of order after rewrite: %v", order)
		}
	}
}

func TestKeyedInsertSortsByExplicitKey(t *testing.T) {
	var e Engine
	e.SetKeyed()
	var order []int
	h1 := HandlerFunc(func(Time) { order = append(order, 1) })
	h2 := HandlerFunc(func(Time) { order = append(order, 2) })
	e.KeyedInsert(100, 2, h2)
	e.KeyedInsert(100, 1, h1)
	e.Run(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("KeyedInsert order = %v, want [1 2]", order)
	}
}

func TestKeyedInsertRanksSortBelowRuntimeKeys(t *testing.T) {
	// Dense barrier/restore ranks must fire before anything scheduled
	// at runtime for the same timestamp — keyedBase adds one to the
	// instant precisely so instant-0 keys stay above the rank range.
	var e Engine
	e.SetKeyed()
	var order []int
	e.Schedule(100, HandlerFunc(func(Time) { order = append(order, 2) }))
	e.KeyedInsert(100, 1, HandlerFunc(func(Time) { order = append(order, 1) }))
	e.Run(0)
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("rank-keyed event did not fire before the runtime-keyed one: %v", order)
	}
}

func TestKeyedInsertOnSerialEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KeyedInsert on a non-keyed engine did not panic")
		}
	}()
	var e Engine
	e.KeyedInsert(0, 1, HandlerFunc(func(Time) {}))
}

func TestSetKeyedWithPendingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetKeyed with pending events did not panic")
		}
	}()
	var e Engine
	e.Schedule(0, HandlerFunc(func(Time) {}))
	e.SetKeyed()
}

func TestKeyedTimeRangeOverflowPanics(t *testing.T) {
	// The 40-bit instant field caps keyed runs near 1.1 simulated
	// seconds; scheduling past it must fail loudly with advice to run
	// serially, not wrap around into wrong event order.
	var e Engine
	e.SetKeyed()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("keyed scheduling beyond the 40-bit range did not panic")
		}
		if !strings.Contains(p.(string), "SimThreads=1") {
			t.Fatalf("overflow panic does not mention the serial fallback: %v", p)
		}
	}()
	e.Schedule(maxKeyedTime+5, HandlerFunc(func(now Time) { e.Schedule(now+1, HandlerFunc(func(Time) {})) }))
	e.Run(0)
}

func TestNextAt(t *testing.T) {
	var e Engine
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on an empty queue reported an event")
	}
	e.Schedule(30, HandlerFunc(func(Time) {}))
	e.Schedule(10, HandlerFunc(func(Time) {}))
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt = (%v, %v), want (10, true)", at, ok)
	}
}
