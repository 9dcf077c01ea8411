package sim

import "fmt"

// Snapshot accessors.
//
// A machine checkpoint must capture the engine exactly: the clock, the
// FIFO tie-break sequence, the fired-event count (event budgets span a
// resume) and every pending item. The engine itself knows nothing about
// serialization formats — the system layer walks the queue with
// ForEachPending, encodes each handler through its own registry, and
// rebuilds the queue on restore with RestoreClock + RestorePending.
// Items are visited in queue order (see ForEachPending), which is
// deterministic for a deterministic run, and may be re-inserted in any
// order: restored items keep their original (at, seq) keys, so pop
// order — the only order that affects simulation results — is
// bit-identical even though the restored queue may split its items
// between the wheel and the far heap differently.

// ForEachPending visits every queued item: the far heap in
// backing-array order, then the wheel's buckets from Now's onward, each
// bucket in (at, seq) order.
func (e *Engine) ForEachPending(fn func(at Time, seq uint64, h Handler)) {
	e.eachPending(func(it *item) { fn(it.at, it.seq, it.h) })
}

// eachPending visits every queued item in ForEachPending order.
func (e *Engine) eachPending(fn func(it *item)) {
	for i := range e.far {
		fn(&e.far[i])
	}
	c := int(e.now>>wheelShift) & wheelMask
	for k := 0; k < wheelBuckets; k++ {
		b := (c + k) & wheelMask
		for i := e.head[b]; i != 0; i = e.nodes[i-1].next {
			fn(&e.nodes[i-1].it)
		}
	}
}

// Seq returns the last assigned tie-break sequence number.
func (e *Engine) Seq() uint64 { return e.seq }

// RestoreClock resets the engine to a checkpointed clock: current time,
// tie-break sequence and fired count. The queue must be empty — restore
// rebuilds it from scratch with RestorePending.
func (e *Engine) RestoreClock(now Time, seq, fired uint64) error {
	if n := e.Pending(); n != 0 {
		return fmt.Errorf("sim: RestoreClock with %d events pending", n)
	}
	e.now = now
	e.seq = seq
	e.fired = fired
	e.stopped = false
	e.keyInstant = -1 // keyed engines restart their per-instant rank
	e.keyCount = 0
	return nil
}

// RestorePending re-inserts a checkpointed item with its original
// timestamp and tie-break sequence. The engine's own sequence counter
// is not advanced — call RestoreClock first with the checkpointed
// counter, which is >= every restored item's seq.
func (e *Engine) RestorePending(at Time, seq uint64, h Handler) error {
	if at < e.now {
		return fmt.Errorf("sim: restored event at %v before now %v", at, e.now)
	}
	if seq > e.seq {
		return fmt.Errorf("sim: restored event seq %d beyond clock seq %d", seq, e.seq)
	}
	if h == nil {
		return fmt.Errorf("sim: restored event with nil handler")
	}
	e.push(item{at: at, seq: seq, h: h})
	return nil
}
