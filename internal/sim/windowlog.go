package sim

// Window logging: the record a parallel machine's barrier replays to
// reconstruct the exact serial event order of a conservative window.
//
// The serial engine's tie-break is a global FIFO counter: two events at
// the same timestamp fire in the order their scheduling calls executed.
// That order is a deterministic function of the queue's contents — pop
// the minimum (at, seq), run it, append its scheduling calls in call
// order — but no per-shard key can reproduce it locally, because the
// counter interleaves calls from every tile. So each shard engine logs
// the structure instead: one LogEntry per dispatched event, and one
// LogChild per scheduling call it made (cross-tile sends, which the
// system layer stages rather than schedules, are interleaved into the
// same stream via LogExternal). At the barrier the machine replays all
// shards' logs through a single virtual heap with a true global
// counter, which assigns every event — fired, still pending, or a
// staged send's delivery — the exact sequence number the serial engine
// would have, then rewrites the pending queues' provisional keys to
// dense ranks in that order (RewriteSeqs).
//
// Logging is engine-local and allocation-free in steady state (the
// slices are reset, not freed, each window). Serial engines never turn
// it on.

// LogEntry records one dispatched event: the (at, seq) identity it was
// popped with and the offset of its first child in the LogChild
// stream. An entry's children end where the next entry's begin (the
// last entry's at the end of the stream); dispatch is not reentrant,
// so the stream nests trivially.
type LogEntry struct {
	At   Time
	Seq  uint64
	Kids int32
}

// LogChild records one scheduling call made by the entry it belongs
// to, in call order. Ext < 0 is an engine-local child carrying the
// (At, Seq) it was inserted with; Ext >= 0 is a staged cross-tile send
// (an index into the shard's staged batch) whose delivery time and
// sequence the barrier replay computes.
type LogChild struct {
	At  Time
	Seq uint64
	Ext int32
}

// BeginWindowLog starts recording dispatches and scheduling calls,
// discarding any previous window's log. The engine must be keyed.
func (e *Engine) BeginWindowLog() {
	if !e.keyed {
		panic("sim: BeginWindowLog on a non-keyed engine")
	}
	e.log = e.log[:0]
	e.logKids = e.logKids[:0]
	e.logOn = true
}

// EndWindowLog stops recording and returns the window's log. The
// returned slices are valid until the next BeginWindowLog. Entries are
// in dispatch order, which for a window is sorted (At, Seq) order —
// the replay looks entries up by binary search.
func (e *Engine) EndWindowLog() ([]LogEntry, []LogChild) {
	e.logOn = false
	return e.log, e.logKids
}

// LogExternal interleaves an externally staged scheduling action (a
// cross-tile send the system layer stages for the window barrier) into
// the current dispatch's child stream, preserving its position among
// the event's engine-local scheduling calls. idx names the action in
// the stager's own batch. A no-op when logging is off.
func (e *Engine) LogExternal(idx int) {
	if e.logOn {
		e.logKids = append(e.logKids, LogChild{Ext: int32(idx)})
	}
}

// RewriteSeqs replaces every pending item's tie-break seq with
// fn(at, seq). The mapping must preserve the relative (at, seq) order
// of the pending set — neither the wheel's buckets nor the far heap
// are re-sorted — which is exactly what the barrier's dense re-ranking
// does.
func (e *Engine) RewriteSeqs(fn func(at Time, seq uint64) uint64) {
	e.eachPending(func(it *item) { it.seq = fn(it.at, it.seq) })
}
