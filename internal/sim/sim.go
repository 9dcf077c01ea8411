// Package sim implements the discrete-event simulation engine underlying
// the ALLARM machine model.
//
// Time is measured in integer picoseconds (type Time) so that sub-
// nanosecond quantities (a 2 GHz core cycle is 500 ps) never lose
// precision. Events are ordered by time with a stable FIFO tie-break:
// two events scheduled for the same instant fire in the order they were
// scheduled, which makes whole-machine simulations bit-reproducible.
//
// # Event queue
//
// The queue is a calendar wheel (a timing wheel) sized for the traffic a
// whole-machine run produces: a few dozen pending events (well under
// 200 at peak), most of them due within a nanosecond or two of Now and
// nearly all within a few tens of nanoseconds. The wheel has
// wheelBuckets buckets of 2^wheelShift ps each; an event due within that
// horizon of Now's bucket goes into the bucket for its time, and
// anything later goes to a small 4-ary min-heap (the far heap).
//
// Each bucket is a singly linked list kept sorted by (at, seq), its
// nodes linked by index inside one node slab shared by every bucket,
// with a free list for reuse — so steady-state scheduling allocates
// nothing and the wheel holds no per-bucket containers. An insert walks
// its bucket from the head, or from the previously inserted node when
// that node is in the same bucket and ordered before the new event, so
// runs of same-instant ties and rising times insert without a walk. An
// occupancy bitmap finds the first non-empty bucket from Now's bucket
// in a handful of word scans. Pop takes the earlier, by (at, seq), of
// that bucket's head and the far heap's top; far events are never
// migrated into the wheel, which keeps the two structures independent.
// Vacated slab nodes and heap slots are zeroed so a fired event's
// handler does not stay reachable from the queue.
//
// # Events and handlers
//
// Every event is a Handler: a typed object with a Handle method. A
// model component allocates its handler once — or keeps a free list of
// them (FreeList) — and re-schedules it for every occurrence (message
// deliveries, controller pipelines, CPU issue loops), so steady-state
// simulation schedules no memory at all, and a checkpoint can encode
// every pending event through the handler's concrete type. HandlerFunc
// adapts a plain function for tests and one-off uses; such an event
// cannot be checkpointed.
//
// # Cancellation
//
// RunCtx and RunUntilCtx are the context-aware run loops: they poll
// ctx.Done once per CancelCheckBudget events (a single non-blocking
// channel read, no allocation, amortised to nothing on the hot path) so
// a multi-minute whole-machine run can be aborted from outside within
// one budget's worth of events. Cancellation is cooperative and leaves
// the engine consistent: Now, Fired and the queue reflect exactly the
// events that fired, so a caller can collect partial statistics or —
// because simulations are deterministic — simply re-run from scratch.
package sim

import (
	"context"
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp in picoseconds since the start of the run.
type Time int64

// Convenient duration units, all expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time in nanoseconds for logs and test failures.
func (t Time) String() string { return fmt.Sprintf("%gns", t.Nanoseconds()) }

// Handler is a typed event target: Handle runs at the scheduled time.
// Handlers exist so hot-path components can preallocate (and pool) their
// callback state instead of allocating a fresh closure per event.
type Handler interface {
	Handle(now Time)
}

// HandlerFunc adapts a closure to the Handler interface. It is a
// convenience for tests and one-off call sites; hot-path components use
// concrete handler records (which also keeps them checkpointable — a
// HandlerFunc in the queue cannot be serialized).
type HandlerFunc func(now Time)

// Handle implements Handler.
func (f HandlerFunc) Handle(now Time) { f(now) }

// item is one queued event.
type item struct {
	at  Time
	seq uint64
	h   Handler
}

// before reports the queue ordering: earlier time first, FIFO on ties.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Calendar wheel geometry: wheelBuckets buckets of 2^wheelShift ps, a
// horizon of about 262 ns. Events due at or beyond the horizon go to the
// far heap.
const (
	wheelShift   = 10
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
)

// node is one wheel event in the slab. Links are slab index + 1, so
// the zero link ends a list and a zero Engine has empty buckets.
type node struct {
	it   item
	next int32
}

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
//
// A parallel machine runs several engines — one per tile shard — each
// still single-threaded within its goroutine, coordinated by
// conservative windows at the system layer. Such engines use keyed
// tie-break order (see SetKeyed in keyed.go) so their combined event
// order matches what one serial engine would produce.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	fired   uint64

	// The queue (see the package doc): wheel buckets over one node
	// slab, plus the far heap. Bucket heads and the free list hold
	// slab index + 1; zero means empty.
	nodes   []node
	free    int32
	head    [wheelBuckets]int32
	occ     [wheelBuckets / 64]uint64 // bit b set: bucket b is non-empty
	inWheel int                       // events in the wheel
	finger  int32                     // the last node inserted; 0 once it fired
	far     []item                    // 4-ary min-heap ordered by (at, seq)

	// Keyed tie-break state (see keyed.go); serial engines never touch
	// these beyond the single keyed branch in nextSeq.
	keyed      bool
	keyInstant Time
	keyCount   uint64

	// Window-log state (see windowlog.go): between BeginWindowLog and
	// EndWindowLog the engine records each dispatched event and, in call
	// order, every scheduling call it made, so a parallel machine's
	// barrier can replay the window's scheduling structure and
	// reconstruct the exact serial event order. Serial engines never
	// turn it on; the logOn branches predict perfectly.
	logOn   bool
	log     []LogEntry
	logKids []LogChild
}

// nextSeq assigns the next tie-break sequence: the plain FIFO counter,
// or — for shard engines of a parallel machine — the keyed form that
// encodes the scheduling instant (keyed.go). The branch predicts
// perfectly on the serial hot path.
func (e *Engine) nextSeq() uint64 {
	if e.keyed {
		return e.keyedNext()
	}
	e.seq++
	return e.seq
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.inWheel + len(e.far) }

// push inserts it into its wheel bucket, or into the far heap when it
// is due at or beyond the horizon of Now's bucket.
func (e *Engine) push(it item) {
	if uint64(it.at>>wheelShift-e.now>>wheelShift) >= wheelBuckets {
		e.pushFar(it)
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.nodes[i-1].next
	} else {
		e.nodes = append(e.nodes, node{})
		i = int32(len(e.nodes))
	}
	n := &e.nodes[i-1]
	n.it = it
	// Link it before the first node ordered after it, walking from the
	// finger when that is an earlier node of the same bucket. Callers
	// insert in any (at, seq) order — RestorePending and KeyedInsert
	// do — so the bucket is kept sorted rather than appended to.
	b := int(it.at>>wheelShift) & wheelMask
	link := &e.head[b]
	if f := e.finger; f != 0 {
		if fn := &e.nodes[f-1]; int(fn.it.at>>wheelShift)&wheelMask == b && fn.it.before(&it) {
			link = &fn.next
		}
	}
	for *link != 0 && e.nodes[*link-1].it.before(&it) {
		link = &e.nodes[*link-1].next
	}
	n.next = *link
	*link = i
	e.finger = i
	e.occ[b>>6] |= 1 << (b & 63)
	e.inWheel++
}

// front locates the earliest pending event: bucket b's head, or the far
// heap's top when b < 0. The queue must be non-empty.
func (e *Engine) front() (b int, it *item) {
	if e.inWheel == 0 {
		return -1, &e.far[0]
	}
	b = e.firstBucket()
	it = &e.nodes[e.head[b]-1].it
	if len(e.far) > 0 && e.far[0].before(it) {
		return -1, &e.far[0]
	}
	return b, it
}

// firstBucket returns the first non-empty bucket at or after Now's. All
// wheel events lie within one horizon of Now's bucket, so circular
// bucket order from there is time order. The wheel must be non-empty.
func (e *Engine) firstBucket() int {
	c := int(e.now>>wheelShift) & wheelMask
	w := c >> 6
	if m := e.occ[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	for k := 1; ; k++ {
		w = (w + 1) & (len(e.occ) - 1)
		if m := e.occ[w]; m != 0 || k == len(e.occ) {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
}

// take removes and returns the event front reported: bucket b's head,
// or the far heap's top when b < 0. The vacated node or slot is zeroed
// so the queue releases its handler reference.
func (e *Engine) take(b int) item {
	if b < 0 {
		return e.popFar()
	}
	i := e.head[b]
	n := &e.nodes[i-1]
	it := n.it
	e.head[b] = n.next
	if n.next == 0 {
		e.occ[b>>6] &^= 1 << (b & 63)
	}
	*n = node{next: e.free}
	e.free = i
	if e.finger == i {
		e.finger = 0
	}
	e.inWheel--
	return it
}

// pop removes and returns the earliest event. The queue must be
// non-empty.
func (e *Engine) pop() item {
	b, _ := e.front()
	return e.take(b)
}

// pushFar inserts it into the far heap, sifting up.
func (e *Engine) pushFar(it item) {
	q := append(e.far, it)
	e.far = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if q[p].before(&q[i]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// popFar removes and returns the far heap's top. The vacated tail slot
// is zeroed so the backing array releases its reference.
func (e *Engine) popFar() item {
	q := e.far
	top := q[0]
	n := len(q) - 1
	it := q[n]
	q[n] = item{}
	q = q[:n]
	e.far = q
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root along min-child links,
	// moving children up into the hole rather than swapping.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if it.before(&q[m]) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = it
	return top
}

// checkTime panics when at is in the past: scheduling before Now always
// indicates a model bug, and silently reordering time would corrupt
// results.
func (e *Engine) checkTime(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", at, e.now))
	}
}

// Schedule schedules h.Handle to run at the absolute time at.
// Scheduling in the past panics (see checkTime); same-time events fire
// in scheduling order.
func (e *Engine) Schedule(at Time, h Handler) {
	e.checkTime(at)
	if h == nil {
		panic("sim: nil handler")
	}
	seq := e.nextSeq()
	if e.logOn {
		e.logKids = append(e.logKids, LogChild{At: at, Seq: seq, Ext: -1})
	}
	e.push(item{at: at, seq: seq, h: h})
}

// ScheduleAfter schedules h.Handle to run delay picoseconds from now.
// Negative delays panic (see Schedule).
func (e *Engine) ScheduleAfter(delay Time, h Handler) { e.Schedule(e.now+delay, h) }

// dispatch fires one popped event.
func (e *Engine) dispatch(it *item) {
	e.now = it.at
	if e.logOn {
		e.log = append(e.log, LogEntry{At: it.at, Seq: it.seq, Kids: int32(len(e.logKids))})
	}
	it.h.Handle(it.at)
	e.fired++
}

// Stop makes Run return after the currently firing event completes.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, Stop is
// called, or limit events have fired (limit <= 0 means no limit). It
// returns the number of events fired by this call.
func (e *Engine) Run(limit uint64) uint64 {
	e.stopped = false
	var fired uint64
	for e.Pending() > 0 && !e.stopped {
		if limit > 0 && fired >= limit {
			break
		}
		it := e.pop()
		e.dispatch(&it)
		fired++
	}
	return fired
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline stay queued; Now advances to at most deadline.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	var fired uint64
	for e.Pending() > 0 && !e.stopped {
		b, next := e.front()
		if next.at > deadline {
			break
		}
		it := e.take(b)
		e.dispatch(&it)
		fired++
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return fired
}

// CancelCheckBudget is the number of events RunCtx and RunUntilCtx
// fire between polls of ctx.Done. It bounds both the cancellation
// latency (at most one budget of events after ctx is cancelled) and
// the cancellation overhead (one non-blocking channel read per budget,
// unmeasurable against the thousands of events it amortises over).
const CancelCheckBudget = 4096

// RunCtx executes events like Run but additionally stops when ctx is
// cancelled, checking ctx.Done every CancelCheckBudget events. It
// returns the number of events fired and, when the run was cut short by
// cancellation, ctx's error; the queue keeps its unfired events so the
// caller can inspect or collect partial state. A context that can never
// be cancelled (Done() == nil, e.g. context.Background()) adds no
// per-event work at all: RunCtx degenerates to Run.
func (e *Engine) RunCtx(ctx context.Context, limit uint64) (uint64, error) {
	done := ctx.Done()
	if done == nil {
		return e.Run(limit), nil
	}
	select {
	case <-done:
		return 0, ctx.Err()
	default:
	}
	e.stopped = false
	var fired uint64
	check := uint64(CancelCheckBudget)
	for e.Pending() > 0 && !e.stopped {
		if limit > 0 && fired >= limit {
			break
		}
		if fired >= check {
			check = fired + CancelCheckBudget
			select {
			case <-done:
				return fired, ctx.Err()
			default:
			}
		}
		it := e.pop()
		e.dispatch(&it)
		fired++
	}
	return fired, nil
}

// RunUntilCtx executes events with timestamps <= deadline, stopping
// early when ctx is cancelled (polled every CancelCheckBudget events,
// like RunCtx). On cancellation Now stays at the last fired event — it
// does not jump to the deadline — so partial statistics remain
// time-consistent.
func (e *Engine) RunUntilCtx(ctx context.Context, deadline Time) (uint64, error) {
	done := ctx.Done()
	if done == nil {
		return e.RunUntil(deadline), nil
	}
	select {
	case <-done:
		return 0, ctx.Err()
	default:
	}
	e.stopped = false
	var fired uint64
	check := uint64(CancelCheckBudget)
	for e.Pending() > 0 && !e.stopped {
		b, next := e.front()
		if next.at > deadline {
			break
		}
		if fired >= check {
			check = fired + CancelCheckBudget
			select {
			case <-done:
				return fired, ctx.Err()
			default:
			}
		}
		it := e.take(b)
		e.dispatch(&it)
		fired++
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return fired, nil
}

// Drain discards all pending events without firing them. Now is
// unchanged. The slab and the far heap are zeroed so the discarded
// handlers become collectable; both keep their capacity for reuse.
func (e *Engine) Drain() {
	clear(e.nodes)
	e.nodes = e.nodes[:0]
	e.free = 0
	e.finger = 0
	e.head = [wheelBuckets]int32{}
	e.occ = [wheelBuckets / 64]uint64{}
	e.inWheel = 0
	clear(e.far)
	e.far = e.far[:0]
}

// FreeList is a LIFO free list of pointer-to-T records, the common
// currency of this simulator's zero-allocation scheduling: components
// Get a record, fill it, schedule it, and Put it back from its Handle
// method. Get returns a zeroed fresh record when the list is empty, so
// callers must (re)set every field they need either way.
//
// Like everything scheduled on an Engine, a FreeList is confined to its
// machine's single goroutine and is not safe for concurrent use.
type FreeList[T any] struct {
	free []*T
}

// Get pops the most recently returned record, or allocates a zero one.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

// Put returns a record for reuse. The caller clears any reference
// fields it no longer owns first (Put does not zero the record).
func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }
