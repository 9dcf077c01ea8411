package system

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"allarm/internal/coherence"
	"allarm/internal/core"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Conservative parallel discrete-event simulation (PDES).
//
// A sharded machine partitions its tiles (cpu + cache controller +
// directory slice + memory controller) into contiguous blocks, one
// event engine per block, and drains the engines concurrently inside
// conservative time windows of width equal to the NoC's minimum
// cross-node latency (noc.MinCrossLatency — one hop plus control
// serialization). Within a window tiles cannot observe each other: the
// only cross-tile coupling is coherence messages, and none sent inside
// the window can arrive before it closes. Every cross-tile send is
// therefore staged — including sends between tiles of the same shard,
// because link occupancy is global state — and applied at the window
// barrier by the coordinator alone. Same-node messages never touch the
// mesh and are delivered by the owning shard immediately.
//
// Windows are adaptive: the next window starts at the earliest pending
// event across all shards, so idle stretches cost one barrier, not one
// barrier per lookahead. The run advances in whole windows; barriers
// are the only safe snapshot/step boundaries, and at each barrier all
// shard clocks agree.
//
// Determinism: results are bit-identical to the serial engine because
// every barrier reconstructs the exact serial event order. The serial
// tie-break is a global FIFO counter — same-timestamp events fire in
// the order their scheduling calls executed — and that order is a pure
// function of the queue's contents, so it can be recomputed after the
// fact: each engine logs the window's dispatches and their scheduling
// calls (sim window log), and the barrier replays all logs through one
// virtual heap with a true global counter (replayMerge). The replay
// applies staged sends to the mesh at their exact serial positions
// (link contention resolves identically to a serial run), schedules
// their deliveries with the serial counter values the serial engine
// would have given them, and rewrites every still-pending event's
// provisional per-shard key to its dense serial rank. Within a window
// the provisional keys only need to keep same-tile events in serial
// relative order — which per-engine instant/rank keys do — because
// tiles cannot interact except through the staged sends the replay
// orders exactly.

// shard is one event partition: an engine owning nodes [lo, hi), its
// staged cross-tile sends, and its private delivery free list.
type shard struct {
	m      *Machine
	id     int
	lo, hi int
	eng    *sim.Engine
	port   *shardPort

	staged     []stagedMsg
	deliveries sim.FreeList[delivery]
	localMsgs  uint64

	// Barrier scratch, valid between a window's end and the next
	// window's start: the engine's window log and the pending-key
	// rewrites the replay computed for this shard.
	logE     []sim.LogEntry
	logC     []sim.LogChild
	rewrites []seqRewrite

	// Worker plumbing, valid for the duration of one stepParallel call.
	work chan sim.Time
	res  chan windowResult
}

// stagedMsg is one cross-tile send awaiting the window barrier: the
// send time and the message. Its position in the issuing event's
// scheduling calls is interleaved into the engine's window log
// (LogExternal), which is how the replay recovers the exact serial
// order of mesh sends.
type stagedMsg struct {
	at  sim.Time
	msg *coherence.Msg
}

// seqRewrite maps one pending event's provisional key to its dense
// serial rank, keyed by the (at, seq) identity it currently holds.
type seqRewrite struct {
	at       sim.Time
	from, to uint64
}

type windowResult struct {
	fired uint64
	err   error
}

// shardPort implements coherence.Port for one shard's controllers.
// Same-node messages are delivered locally (no mesh state involved);
// everything else is staged for the barrier, with its call position
// recorded in the window log.
type shardPort struct{ s *shard }

func (p *shardPort) Send(msg *coherence.Msg) {
	s := p.s
	if msg.Src == msg.Dst {
		s.localMsgs++
		d := s.deliveries.Get()
		d.m, d.sh, d.msg = s.m, s, msg
		s.eng.ScheduleAfter(s.m.cfg.NoC.LocalLatency, d)
		return
	}
	s.eng.LogExternal(len(s.staged))
	s.staged = append(s.staged, stagedMsg{at: s.eng.Now(), msg: msg})
}

// effectiveShards clamps the configured SimThreads to what the machine
// supports; 1 selects the serial engine.
func (m *Machine) effectiveShards() int {
	t := m.cfg.SimThreads
	if t > m.cfg.Nodes {
		t = m.cfg.Nodes
	}
	switch {
	case t <= 1:
		return 1
	case m.cfg.CheckInvariants:
		// The invariant checker keeps machine-global shadow state.
		return 1
	case m.mesh.MinCrossLatency() <= 0:
		return 1
	}
	return t
}

// buildShards creates n keyed engines over contiguous tile blocks.
func (m *Machine) buildShards(n int) {
	m.lookahead = m.mesh.MinCrossLatency()
	m.shardOf = make([]int, m.cfg.Nodes)
	base, rem := m.cfg.Nodes/n, m.cfg.Nodes%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		s := &shard{m: m, id: i, lo: lo, hi: lo + size, eng: &sim.Engine{}}
		s.eng.SetKeyed()
		s.port = &shardPort{s: s}
		for j := lo; j < lo+size; j++ {
			m.shardOf[j] = i
		}
		m.shards = append(m.shards, s)
		lo += size
	}
}

// runUntil drains one shard up to deadline, converting panics (sealed
// page faults, keyed-range overflow, model bugs) into errors so one
// failing shard cannot take the process down from a worker goroutine.
func (s *shard) runUntil(ctx context.Context, deadline sim.Time) (wr windowResult) {
	defer func() {
		if p := recover(); p != nil {
			wr.err = fmt.Errorf("system: shard %d: %v", s.id, p)
		}
	}()
	fired, err := s.eng.RunUntilCtx(ctx, deadline)
	return windowResult{fired: fired, err: err}
}

// startWorkers launches one goroutine per shard except shard 0, which
// the coordinator drains inline. Channel barriers (not spin loops) keep
// the scheme live at GOMAXPROCS=1.
func (m *Machine) startWorkers(ctx context.Context) {
	for _, s := range m.shards[1:] {
		s.work = make(chan sim.Time)
		s.res = make(chan windowResult)
		go func(s *shard) {
			for dl := range s.work {
				s.res <- s.runUntil(ctx, dl)
			}
		}(s)
	}
}

// stopWorkers releases the worker goroutines. Every dispatched window
// has been joined by the time this runs, so closing is safe.
func (m *Machine) stopWorkers() {
	for _, s := range m.shards[1:] {
		close(s.work)
		s.work, s.res = nil, nil
	}
}

// runWindow drains every shard up to deadline and joins at the barrier.
// Cancellation is polled per shard inside RunUntilCtx, so a parallel
// run aborts within one window. A non-cancellation error (a shard
// panic) takes precedence over concurrent cancellations.
func (m *Machine) runWindow(ctx context.Context, deadline sim.Time) (uint64, error) {
	for _, s := range m.shards[1:] {
		s.work <- deadline
	}
	wr := m.shards[0].runUntil(ctx, deadline)
	total, err := wr.fired, wr.err
	for _, s := range m.shards[1:] {
		wr := <-s.res
		total += wr.fired
		if wr.err != nil && (err == nil || (isCancel(err) && !isCancel(wr.err))) {
			err = wr.err
		}
	}
	return total, err
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// minPending returns the earliest pending event time across shards.
func (m *Machine) minPending() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, s := range m.shards {
		if at, ok := s.eng.NextAt(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// replayNode is one node of the barrier's virtual serial heap: a
// pending or window-executed engine event identified by its current
// (at, seq) key, or — msg non-nil — a cross-tile delivery the replay
// has sent through the mesh and not yet inserted. ord is the true
// serial sequence the replay assigned.
type replayNode struct {
	at  sim.Time
	ord uint64
	eng int32
	seq uint64
	msg *coherence.Msg
}

func replayBefore(a, b *replayNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// replayPush inserts n into the barrier heap (binary min-heap over
// (at, ord) in m.replayHeap).
func (m *Machine) replayPush(n replayNode) {
	q := append(m.replayHeap, n)
	m.replayHeap = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if replayBefore(&q[p], &q[i]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// replayPop removes and returns the heap minimum.
func (m *Machine) replayPop() replayNode {
	q := m.replayHeap
	top := q[0]
	n := len(q) - 1
	it := q[n]
	q[n] = replayNode{}
	q = q[:n]
	m.replayHeap = q
	i := 0
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && replayBefore(&q[c+1], &q[c]) {
			c++
		}
		if replayBefore(&it, &q[c]) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = it
	}
	return top
}

// captureSeeds snapshots every shard's pending set as the initial
// contents of the next window's virtual heap, ordered exactly as the
// serial engine's FIFO counter would order them. Pending events carry
// either a dense serial rank (assigned by the previous barrier or a
// checkpoint restore) or a provisional instant/rank key (scheduled
// between windows — thread starts, which are staggered onto distinct
// instants); (at, key, shard) reproduces the serial order in both
// cases because ranks sort below every same-instant provisional key
// and shards cover the tiles in ascending order, matching the order
// construction-time scheduling visits them.
func (m *Machine) captureSeeds() {
	buf := m.replayHeap[:0]
	for i, s := range m.shards {
		eng := int32(i)
		s.eng.ForEachPending(func(at sim.Time, seq uint64, h sim.Handler) {
			buf = append(buf, replayNode{at: at, seq: seq, eng: eng})
		})
	}
	sort.Slice(buf, func(i, j int) bool {
		if buf[i].at != buf[j].at {
			return buf[i].at < buf[j].at
		}
		if buf[i].seq != buf[j].seq {
			return buf[i].seq < buf[j].seq
		}
		return buf[i].eng < buf[j].eng
	})
	for i := range buf {
		buf[i].ord = uint64(i)
	}
	m.replayHeap = buf
}

// findLog locates the dispatch record of the event identified by
// (at, seq) in a shard's window log. Entries are in dispatch order,
// which is sorted (at, seq) order.
func findLog(entries []sim.LogEntry, at sim.Time, seq uint64) int {
	i := sort.Search(len(entries), func(i int) bool {
		e := &entries[i]
		if e.At != at {
			return e.At > at
		}
		return e.Seq >= seq
	})
	if i < len(entries) && entries[i].At == at && entries[i].Seq == seq {
		return i
	}
	return -1
}

// barrier reconstructs the exact serial order of the window that just
// ran and re-keys all cross-window state accordingly; see replayMerge.
// Replay invariant violations (a dispatch without a log record, a
// message arriving inside its own window) surface as errors rather
// than crashing the caller.
func (m *Machine) barrier(deadline sim.Time) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("system: window barrier: %v", p)
		}
	}()
	m.replayMerge(deadline)
	return nil
}

// replayMerge is the window barrier: it replays the window's scheduling
// structure — the per-shard logs of who dispatched and what each
// dispatch scheduled, cross-tile sends interleaved at their call
// positions — through one virtual heap with a true global FIFO
// counter, popping (at, ord) minima exactly as the serial engine pops
// (at, seq) minima. Along the way it applies staged sends to the mesh
// in their exact serial order (resolving link contention identically
// to a serial run) and computes each delivery's arrival. When the
// replay passes the deadline, the heap holds precisely the events that
// remain pending, in exact serial order; they are re-ranked densely,
// the shard queues' keys rewritten in place, and the deliveries
// inserted under their ranks.
func (m *Machine) replayMerge(deadline sim.Time) {
	for _, s := range m.shards {
		s.logE, s.logC = s.eng.EndWindowLog()
		s.rewrites = s.rewrites[:0]
	}
	ctr := uint64(len(m.replayHeap))
	for len(m.replayHeap) > 0 && m.replayHeap[0].at <= deadline {
		n := m.replayPop()
		if n.msg != nil {
			panic("system: replay: delivery inside its own window (lookahead violated)")
		}
		s := m.shards[n.eng]
		ei := findLog(s.logE, n.at, n.seq)
		if ei < 0 {
			panic(fmt.Sprintf("system: replay: shard %d has no dispatch record for the event at %v", n.eng, n.at))
		}
		lo := s.logE[ei].Kids
		hi := int32(len(s.logC))
		if ei+1 < len(s.logE) {
			hi = s.logE[ei+1].Kids
		}
		for _, c := range s.logC[lo:hi] {
			if c.Ext >= 0 {
				st := s.staged[c.Ext]
				arrival := m.mesh.Send(st.at, st.msg.Src, st.msg.Dst, st.msg.Op.Class())
				if arrival <= deadline {
					panic(fmt.Sprintf("system: replay: message sent at %v arrived at %v inside its window", st.at, arrival))
				}
				m.replayPush(replayNode{at: arrival, ord: ctr, eng: int32(m.shardOf[st.msg.Dst]), msg: st.msg})
			} else {
				m.replayPush(replayNode{at: c.At, ord: ctr, eng: n.eng, seq: c.Seq})
			}
			ctr++
		}
	}

	// Everything left is pending: drain in (at, ord) order — the exact
	// serial heap order — assigning dense ranks. Ranks stay below the
	// lowest provisional key (keyedBase of instant 0), so events the
	// next window schedules at the same timestamps sort after them,
	// exactly as their later FIFO seqs would have.
	expect := 0
	for _, s := range m.shards {
		expect += s.eng.Pending()
	}
	deliv := m.delivBuf[:0]
	rank := uint64(0)
	engineItems := 0
	for len(m.replayHeap) > 0 {
		n := m.replayPop()
		rank++
		if n.msg != nil {
			n.ord = rank
			deliv = append(deliv, n)
			continue
		}
		s := m.shards[n.eng]
		s.rewrites = append(s.rewrites, seqRewrite{at: n.at, from: n.seq, to: rank})
		engineItems++
	}
	if engineItems != expect {
		panic(fmt.Sprintf("system: replay covered %d pending events, shards hold %d", engineItems, expect))
	}
	if rank > maxBarrierRank {
		panic(fmt.Sprintf("system: %d pending events exceed the barrier rank range; run with SimThreads=1", rank))
	}
	for _, s := range m.shards {
		rw := s.rewrites
		if len(rw) > 0 {
			sort.Slice(rw, func(i, j int) bool {
				if rw[i].at != rw[j].at {
					return rw[i].at < rw[j].at
				}
				return rw[i].from < rw[j].from
			})
			s.eng.RewriteSeqs(func(at sim.Time, seq uint64) uint64 {
				i := sort.Search(len(rw), func(i int) bool {
					if rw[i].at != at {
						return rw[i].at > at
					}
					return rw[i].from >= seq
				})
				if i >= len(rw) || rw[i].at != at || rw[i].from != seq {
					panic(fmt.Sprintf("system: replay has no rank for the pending event at %v", at))
				}
				return rw[i].to
			})
		}
		for i := range s.staged {
			s.staged[i].msg = nil
		}
		s.staged = s.staged[:0]
	}
	for i := range deliv {
		n := &deliv[i]
		dst := m.shards[n.eng]
		d := dst.deliveries.Get()
		d.m, d.sh, d.msg = m, dst, n.msg
		dst.eng.KeyedInsert(n.at, n.ord, d)
		n.msg = nil
	}
	m.delivBuf = deliv[:0]
}

// maxBarrierRank bounds the dense ranks a barrier may assign: they
// must sort below keyedBase(0) so the next window's provisional keys
// stay above every rank. A machine holds a few pending events per
// tile; millions pending means a model bug, not a big window.
const maxBarrierRank = 1<<24 - 1

// mergeAbandoned delivers staged sends of a window that did not
// complete (cancellation or a shard failure): shards stopped at
// different points, so the log cannot be replayed, and exact order no
// longer matters — the run is over and only well-formedness of the
// partial state does. Sends are applied in (time, source) order and
// deliveries inserted with keys above every pending key.
func (m *Machine) mergeAbandoned() {
	for _, s := range m.shards {
		s.eng.EndWindowLog()
	}
	buf := m.mergeBuf[:0]
	for _, s := range m.shards {
		buf = append(buf, s.staged...)
		for i := range s.staged {
			s.staged[i].msg = nil
		}
		s.staged = s.staged[:0]
	}
	sort.SliceStable(buf, func(i, j int) bool {
		if buf[i].at != buf[j].at {
			return buf[i].at < buf[j].at
		}
		return buf[i].msg.Src < buf[j].msg.Src
	})
	for i, st := range buf {
		arrival := m.mesh.Send(st.at, st.msg.Src, st.msg.Dst, st.msg.Op.Class())
		dst := m.shards[m.shardOf[st.msg.Dst]]
		d := dst.deliveries.Get()
		d.m, d.sh, d.msg = m, dst, st.msg
		dst.eng.KeyedInsert(arrival, 1<<63|uint64(i), d)
		buf[i].msg = nil
	}
	m.mergeBuf = buf[:0]
}

// eachEngine visits the machine's engines: the serial engine, or every
// shard engine in shard order.
func (m *Machine) eachEngine(fn func(*sim.Engine)) {
	if m.shards == nil {
		fn(m.eng)
		return
	}
	for _, s := range m.shards {
		fn(s.eng)
	}
}

// ownerNode resolves the tile an event handler belongs to, which
// decides the shard a restored event is inserted into. Every handler
// shape the checkpoint format knows (cpu step/pend, delivery, deferred
// send, directory event) is owned by exactly one tile.
func (m *Machine) ownerNode(h sim.Handler) (mem.NodeID, bool) {
	switch v := h.(type) {
	case *cpuStep:
		return v.c.spec.Node, true
	case *cpu:
		return v.spec.Node, true
	case *delivery:
		return v.msg.Dst, true
	}
	if n, ok := coherence.SendEventOwner(h); ok {
		return n, true
	}
	if n, ok := core.DirEventOwner(h); ok {
		return n, true
	}
	return 0, false
}

// stepParallel is the sharded counterpart of the serial StepCtx body:
// it advances the run window by window until the phase ends, the event
// bound is crossed (rounded up to a whole window), the budget trips,
// or a shard reports cancellation or failure. It returns only at
// window barriers, so every return point is a safe snapshot boundary.
func (m *Machine) stepParallel(ctx context.Context, window uint64) (bool, error) {
	r := m.run
	m.startWorkers(ctx)
	defer m.stopWorkers()
	var stepFired uint64
	for {
		t0, ok := m.minPending()
		if !ok {
			return m.phaseEnd()
		}
		if m.cfg.MaxEvents > 0 && r.phaseFired >= m.cfg.MaxEvents {
			return false, m.budgetExhausted()
		}
		if window > 0 && stepFired >= window {
			return false, nil
		}
		deadline := t0 + m.lookahead - 1
		m.captureSeeds()
		for _, s := range m.shards {
			s.eng.BeginWindowLog()
		}
		fired, werr := m.runWindow(ctx, deadline)
		r.phaseFired += fired
		stepFired += fired
		if werr != nil {
			// The window did not complete, so the exact-order replay is
			// impossible; deliver staged messages best-effort (arrivals
			// land past every shard's clock regardless of where each
			// shard stopped) so the partial state is well-formed.
			m.mergeAbandoned()
			if !isCancel(werr) {
				return false, werr
			}
			r.cancelled = true
			if r.phase == phaseWarmup {
				m.roiStart = m.now()
				return false, fmt.Errorf("system: cancelled during warmup at t=%v: %w", m.now(), werr)
			}
			m.roiStart = r.roiStart
			return false, fmt.Errorf("system: cancelled at t=%v with %d threads in flight: %w",
				m.now(), len(m.cpus), werr)
		}
		if err := m.barrier(deadline); err != nil {
			return false, err
		}
	}
}
