package sim

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// selfScheduler keeps one event in the queue forever, modelling a
// simulation that never runs dry on its own.
type selfScheduler struct {
	e     *Engine
	fired int
}

func (s *selfScheduler) Handle(now Time) {
	s.fired++
	s.e.Schedule(now+1, s)
}

// TestRunCtxBackgroundMatchesRun: a non-cancellable context takes the
// plain Run path — same events, same Now, nil error.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	var a, b Engine
	for i := 0; i < 100; i++ {
		at := Time(i)
		a.Schedule(at, HandlerFunc(func(Time) {}))
		b.Schedule(at, HandlerFunc(func(Time) {}))
	}
	na := a.Run(0)
	nb, err := b.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || a.Now() != b.Now() {
		t.Fatalf("RunCtx(Background) fired %d events to t=%v, Run fired %d to t=%v", nb, b.Now(), na, a.Now())
	}
}

// TestRunCtxCancelWithinBudget: cancelling mid-run stops the loop after
// at most CancelCheckBudget further events, with the error reporting
// the cause and the queue keeping its unfired events.
func TestRunCtxCancelWithinBudget(t *testing.T) {
	var e Engine
	s := &selfScheduler{e: &e}
	e.Schedule(1, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first budget boundary
	fired, err := e.RunCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired > CancelCheckBudget {
		t.Fatalf("fired %d events after cancellation, budget is %d", fired, CancelCheckBudget)
	}
	if e.Pending() == 0 {
		t.Fatal("cancellation drained the queue; unfired events must stay queued")
	}
}

// TestRunCtxCancelFromEvent: a cancellation raised by a running event
// (the realistic drain case: another goroutine cancels) is observed at
// the next budget boundary.
func TestRunCtxCancelFromEvent(t *testing.T) {
	var e Engine
	s := &selfScheduler{e: &e}
	e.Schedule(1, s)
	ctx, cancel := context.WithCancel(context.Background())
	stop := CancelCheckBudget / 2
	e.Schedule(Time(stop), HandlerFunc(func(Time) { cancel() }))
	fired, err := e.RunCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bound := uint64(stop) + CancelCheckBudget + 1; fired > bound {
		t.Fatalf("fired %d events, want <= %d (cancel point + one budget)", fired, bound)
	}
	if s.fired == 0 {
		t.Fatal("no events fired before cancellation")
	}
}

// TestRunCtxResumeAfterCancel: the engine stays consistent after a
// cancelled run — re-running with a fresh context finishes the queue.
func TestRunCtxResumeAfterCancel(t *testing.T) {
	var e Engine
	const total = 10 * CancelCheckBudget
	var fired int
	for i := 1; i <= total; i++ {
		e.Schedule(Time(i), HandlerFunc(func(Time) { fired++ }))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if fired != total || e.Pending() != 0 {
		t.Fatalf("fired %d of %d events, %d pending", fired, total, e.Pending())
	}
	if e.Now() != total {
		t.Fatalf("Now = %v, want %d", e.Now(), total)
	}
}

// TestRunUntilCtxCancel: RunUntilCtx honours cancellation and does not
// jump Now to the deadline on an aborted run.
func TestRunUntilCtxCancel(t *testing.T) {
	var e Engine
	s := &selfScheduler{e: &e}
	e.Schedule(1, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const deadline = Time(1 << 40)
	fired, err := e.RunUntilCtx(ctx, deadline)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired > CancelCheckBudget {
		t.Fatalf("fired %d events after cancellation, budget is %d", fired, CancelCheckBudget)
	}
	if e.Now() >= deadline {
		t.Fatalf("Now = %v jumped to the deadline on a cancelled run", e.Now())
	}
	// And with a background context it behaves exactly like RunUntil.
	var f Engine
	f.Schedule(5, HandlerFunc(func(Time) {}))
	if _, err := f.RunUntilCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if f.Now() != 100 {
		t.Fatalf("Now = %v, want deadline 100", f.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30, HandlerFunc(func(Time) { order = append(order, 3) }))
	e.Schedule(10, HandlerFunc(func(Time) { order = append(order, 1) }))
	e.Schedule(20, HandlerFunc(func(Time) { order = append(order, 2) }))
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, HandlerFunc(func(Time) { order = append(order, i) }))
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(100, HandlerFunc(func(Time) {}))
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past event")
		}
	}()
	e.Schedule(50, HandlerFunc(func(Time) {}))
}

func TestNilEventPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil event")
		}
	}()
	e.ScheduleAfter(1, nil)
}

func TestAfterIsRelative(t *testing.T) {
	var e Engine
	var at Time
	e.Schedule(100, HandlerFunc(func(now Time) {
		e.ScheduleAfter(50, HandlerFunc(func(now Time) { at = now }))
	}))
	e.Run(0)
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestRunLimit(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), HandlerFunc(func(Time) {}))
	}
	if fired := e.Run(4); fired != 4 {
		t.Fatalf("fired %d, want 4", fired)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending %d, want 6", e.Pending())
	}
}

func TestStop(t *testing.T) {
	var e Engine
	ran := 0
	e.Schedule(1, HandlerFunc(func(Time) { ran++; e.Stop() }))
	e.Schedule(2, HandlerFunc(func(Time) { ran++ }))
	e.Run(0)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.Schedule(at, HandlerFunc(func(Time) { fired = append(fired, at) }))
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want deadline", e.Now())
	}
	e.Run(0)
	if len(fired) != 3 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

func TestDrain(t *testing.T) {
	var e Engine
	e.Schedule(1, HandlerFunc(func(Time) { t.Fatal("drained event fired") }))
	e.Drain()
	if e.Run(0) != 0 {
		t.Fatal("events after drain")
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var e Engine
	depth := 0
	var recurse HandlerFunc
	recurse = func(now Time) {
		if depth < 100 {
			depth++
			e.ScheduleAfter(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	if s := (1500 * Picosecond).String(); s != "1.5ns" {
		t.Fatalf("String = %q", s)
	}
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), HandlerFunc(func(Time) {}))
	}
	e.Run(0)
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

func TestHandlerScheduling(t *testing.T) {
	var e Engine
	var got []Time
	h := handlerFunc(func(now Time) { got = append(got, now) })
	e.Schedule(10, h)
	e.Schedule(30, h)
	e.Schedule(20, HandlerFunc(func(now Time) { got = append(got, now) }))
	e.Run(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("fire times = %v", got)
	}
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(now Time)

func (f handlerFunc) Handle(now Time) { f(now) }

func TestHandlerFIFOTieBreakWithEvents(t *testing.T) {
	// Every handler type shares one sequence counter, so same-time
	// events fire in scheduling order regardless of type.
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			e.Schedule(100, handlerFunc(func(Time) { order = append(order, i) }))
		} else {
			e.Schedule(100, HandlerFunc(func(Time) { order = append(order, i) }))
		}
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNilHandlerPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil handler")
		}
	}()
	e.Schedule(1, nil)
}

func TestScheduleHandlerInPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(100, HandlerFunc(func(Time) {}))
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past handler")
		}
	}()
	e.Schedule(50, handlerFunc(func(Time) {}))
}

func TestDrainThenReuse(t *testing.T) {
	var e Engine
	e.Schedule(10, HandlerFunc(func(Time) { t.Fatal("drained event fired") }))
	e.Schedule(20, HandlerFunc(func(Time) { t.Fatal("drained event fired") }))
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d", e.Pending())
	}
	// The engine must be fully usable after Drain: same clock, fresh
	// events fire normally.
	var fired []Time
	e.Schedule(15, HandlerFunc(func(now Time) { fired = append(fired, now) }))
	e.Schedule(5, HandlerFunc(func(now Time) { fired = append(fired, now) }))
	if n := e.Run(0); n != 2 {
		t.Fatalf("fired %d events after reuse, want 2", n)
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 15 {
		t.Fatalf("fire order after reuse: %v", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestRunUntilEventExactlyAtDeadline(t *testing.T) {
	var e Engine
	var fired []Time
	for _, at := range []Time{10, 20, 21} {
		at := at
		e.Schedule(at, HandlerFunc(func(Time) { fired = append(fired, at) }))
	}
	if n := e.RunUntil(20); n != 2 {
		t.Fatalf("fired %d events, want 2 (deadline is inclusive)", n)
	}
	if len(fired) != 2 || fired[1] != 20 {
		t.Fatalf("fired %v, want the t=20 event included", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}

func TestRunLimitResume(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(10*(i+1)), HandlerFunc(func(Time) { order = append(order, i) }))
	}
	if fired := e.Run(3); fired != 3 {
		t.Fatalf("first Run fired %d, want 3", fired)
	}
	if e.Now() != 30 {
		t.Fatalf("Now after limited run = %v, want 30", e.Now())
	}
	if fired := e.Run(0); fired != 7 {
		t.Fatalf("resumed Run fired %d, want 7", fired)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("resume reordered events: %v", order)
		}
	}
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10 across both calls", e.Fired())
	}
}

// heldHandlers counts the handler references the queue holds anywhere
// in its storage: every slab node and every far-heap slot up to
// capacity, live or vacated.
func heldHandlers(e *Engine) int {
	n := 0
	for _, nd := range e.nodes[:cap(e.nodes)] {
		if nd.it.h != nil {
			n++
		}
	}
	for _, it := range e.far[:cap(e.far)] {
		if it.h != nil {
			n++
		}
	}
	return n
}

// spreadAt spaces test events 7 ns apart, so a few dozen of them span
// both the wheel and the far heap.
func spreadAt(i int) Time { return Time(i) * 7 * Nanosecond }

// TestQueueReleasesReferencesAfterRun is the regression test for the old
// eventHeap.Pop, which left each popped item's closure reachable in the
// backing array: after a run drains, no slab node or far-heap slot may
// still reference a callback.
func TestQueueReleasesReferencesAfterRun(t *testing.T) {
	var e Engine
	for i := 0; i < 100; i++ {
		payload := make([]byte, 1<<10)
		e.Schedule(spreadAt(i), HandlerFunc(func(Time) { _ = payload }))
		if i%3 == 0 {
			e.Schedule(spreadAt(i), handlerFunc(func(Time) {}))
		}
	}
	if len(e.far) == 0 || e.inWheel == 0 {
		t.Fatalf("test events cover %d wheel and %d far events, want both", e.inWheel, len(e.far))
	}
	e.Run(0)
	if n := heldHandlers(&e); n != 0 {
		t.Fatalf("queue storage still references %d callbacks after drain", n)
	}
}

// TestRunLimitReleasesPoppedSlots checks the same property mid-run:
// events popped by a limited Run must not linger beyond the live queue.
func TestRunLimitReleasesPoppedSlots(t *testing.T) {
	var e Engine
	for i := 0; i < 50; i++ {
		e.Schedule(spreadAt(i), HandlerFunc(func(Time) {}))
	}
	e.Run(20)
	if n, live := heldHandlers(&e), e.Pending(); n != live {
		t.Fatalf("queue storage references %d callbacks, want the %d live ones", n, live)
	}
}

func TestDrainReleasesReferences(t *testing.T) {
	var e Engine
	for i := 0; i < 50; i++ {
		e.Schedule(spreadAt(i), HandlerFunc(func(Time) {}))
	}
	e.Drain()
	if n := heldHandlers(&e); n != 0 {
		t.Fatalf("queue storage still references %d callbacks after Drain", n)
	}
}

// churnHandler reschedules itself until its budget runs out, modelling a
// steady-state component (CPU issue loop, controller pipeline).
type churnHandler struct {
	e         *Engine
	remaining int
}

func (c *churnHandler) Handle(now Time) {
	if c.remaining > 0 {
		c.remaining--
		c.e.Schedule(now+1, c)
	}
}

// BenchmarkEngineChurn measures the scheduler's steady-state cost:
// preallocated handlers churning through a populated queue. It runs
// allocation-free once the queue's slab and far heap have grown.
func BenchmarkEngineChurn(b *testing.B) {
	const width = 1024
	var e Engine
	handlers := make([]churnHandler, width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range handlers {
			handlers[j] = churnHandler{e: &e, remaining: 64}
			e.Schedule(e.Now()+Time(j), &handlers[j])
		}
		e.Run(0)
	}
}

// traffic replays the event-queue traffic of a whole-machine run:
// trafficDepth self-rescheduling events (the measured mean pending depth
// is 37–52) whose delays follow the measured mix — about half under
// 1 ns, a fifth 1–2 ns, most of the rest 11–61 ns — plus a small tail
// beyond the wheel's horizon that exercises the far heap.
type traffic struct {
	e      Engine
	delays [4096]Time
	i      int
}

const trafficDepth = 45

// trafficEvent is one of the traffic's recurring events.
type trafficEvent struct{ t *traffic }

func (ev *trafficEvent) Handle(Time) {
	t := ev.t
	t.e.ScheduleAfter(t.delays[t.i%len(t.delays)], ev)
	t.i++
}

func newTraffic() *traffic {
	t := &traffic{}
	r := rand.New(rand.NewPCG(1, 2))
	for i := range t.delays {
		switch p := r.IntN(100); {
		case p < 48:
			t.delays[i] = Time(r.IntN(1000))
		case p < 68:
			t.delays[i] = 1000 + Time(r.IntN(1000))
		case p < 98:
			t.delays[i] = 11000 + Time(r.IntN(50000))
		default:
			t.delays[i] = 300*Nanosecond + Time(r.IntN(700000))
		}
	}
	for i := 0; i < trafficDepth; i++ {
		t.e.Schedule(Time(i*100), &trafficEvent{t: t})
	}
	t.e.Run(100000) // grow the slab and the far heap to steady state
	return t
}

// BenchmarkEngineTraffic measures one schedule/pop/dispatch cycle (one
// op) on the measured whole-machine traffic shape.
func BenchmarkEngineTraffic(b *testing.B) {
	t := newTraffic()
	b.ReportAllocs()
	b.ResetTimer()
	t.e.Run(uint64(b.N))
}

// TestEngineTrafficZeroAllocs guards the slab design: once the queue is
// warm, scheduling and popping events allocates nothing.
func TestEngineTrafficZeroAllocs(t *testing.T) {
	tr := newTraffic()
	if allocs := testing.AllocsPerRun(50, func() { tr.e.Run(1000) }); allocs != 0 {
		t.Fatalf("%v allocations per 1000 warm schedule/pop cycles, want 0", allocs)
	}
}

// TestItemSize pins the queue item at four words: time, sequence and
// the handler interface.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(item{}); n != 32 {
		t.Fatalf("sizeof(item) = %d, want 32", n)
	}
}

// BenchmarkEngineChurnCancellable is BenchmarkEngineChurn through
// RunCtx with a genuinely cancellable context: the budgeted
// cancellation poll must add no per-event allocations (and no
// measurable per-event time) over the plain Run loop.
func BenchmarkEngineChurnCancellable(b *testing.B) {
	const width = 1024
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var e Engine
	handlers := make([]churnHandler, width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range handlers {
			handlers[j] = churnHandler{e: &e, remaining: 64}
			e.Schedule(e.Now()+Time(j), &handlers[j])
		}
		if _, err := e.RunCtx(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}
