package sim

import "fmt"

// Keyed tie-break mode: the engine side of conservative parallel
// simulation (PDES).
//
// A parallel machine partitions its tiles over several engines that
// drain events concurrently inside conservative time windows. Within a
// window each engine needs a tie-break for same-timestamp events that
// is provisional but locally correct: any two events scheduled by the
// same tile must keep the serial engine's relative order (same-tile
// order is the only intra-window order that can affect results — tiles
// interact exclusively through staged cross-tile messages, which the
// window barrier applies in exact serial order; see the system layer's
// replay merge). The keyed form delivers that with a key that encodes
// the scheduling instant and a per-engine rank:
//
//	bits 63..24  scheduling instant + 1 (40 bits of picoseconds)
//	bits 23..0   per-engine rank within the instant
//
// Same-tile events scheduled at different instants order by instant —
// the serial engine's FIFO counter would too, since the earlier call
// happened earlier — and same-instant calls order by the engine's call
// order, which restricted to one tile is again the serial order. At
// every window barrier the machine replays the window's scheduling
// structure (windowlog.go), computes each still-pending event's exact
// serial position, and rewrites these provisional keys to dense ranks
// (RewriteSeqs), so keys never need to be comparable across engines.
//
// The 40-bit instant field bounds keyed runs to about 1.1 s of
// simulated time (2^40 ps); beyond that the engine panics with advice
// to run serially. Serial engines never enter keyed mode and have no
// such bound.

const (
	keyedRankBits = 24

	maxKeyedRank = 1<<keyedRankBits - 1 // per-instant scheduling rank
	maxKeyedTime = 1<<40 - 1            // instant+1 must fit in 40 bits
)

// keyedBase positions an instant in the high bits of a key. The +1
// keeps every runtime key above the dense-rank range that barrier
// rewrites and restored checkpoint queues use (see KeyedInsert): a rank
// assigned before a window always sorts ahead of a key assigned inside
// it, exactly as the earlier scheduling call's FIFO seq would have.
func keyedBase(at Time) uint64 {
	if uint64(at) >= maxKeyedTime {
		panic(fmt.Sprintf("sim: simulated time %v exceeds the keyed tie-break range (~1.1s); run with SimThreads=1", at))
	}
	return (uint64(at) + 1) << keyedRankBits
}

// SetKeyed switches the engine's tie-break to keyed mode. It must be
// called before any event is scheduled; a parallel machine sets it on
// every shard engine at construction.
func (e *Engine) SetKeyed() {
	if e.Pending() != 0 {
		panic("sim: SetKeyed on an engine with pending events")
	}
	e.keyed = true
	e.keyInstant = -1
}

// Keyed reports whether the engine uses keyed tie-break order.
func (e *Engine) Keyed() bool { return e.keyed }

// keyedNext assigns the next local scheduling key: the current instant
// with a per-instant rank that resets whenever time advances.
func (e *Engine) keyedNext() uint64 {
	if e.now != e.keyInstant {
		e.keyInstant = e.now
		e.keyCount = 0
	}
	e.keyCount++
	if e.keyCount > maxKeyedRank {
		panic(fmt.Sprintf("sim: more than %d events scheduled at instant %v", maxKeyedRank, e.now))
	}
	return keyedBase(e.now) | e.keyCount
}

// KeyedInsert inserts h at time at with an explicit tie-break key —
// how window barriers insert merged cross-shard deliveries and how a
// restore distributes a checkpointed queue (dense ranks, which sort
// below every runtime key because keyedBase adds one to the instant).
// The engine must be in keyed mode and at must not precede Now.
func (e *Engine) KeyedInsert(at Time, key uint64, h Handler) {
	if !e.keyed {
		panic("sim: KeyedInsert on a non-keyed engine")
	}
	e.checkTime(at)
	if h == nil {
		panic("sim: nil handler")
	}
	e.push(item{at: at, seq: key, h: h})
}

// NextAt returns the timestamp of the earliest pending event, and
// false when the queue is empty. Window schedulers use it to skip idle
// stretches between conservative windows.
func (e *Engine) NextAt() (Time, bool) {
	if e.Pending() == 0 {
		return 0, false
	}
	_, it := e.front()
	return it.at, true
}
