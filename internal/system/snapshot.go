package system

import (
	"fmt"
	"io"
	"sort"

	"allarm/internal/checkpoint"
	"allarm/internal/coherence"
	"allarm/internal/core"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Machine checkpointing (gem5-style): Snapshot serializes the complete
// architectural and microarchitectural state of a running simulation —
// the event queue, every controller, every cache line, the page tables
// and the workload cursors — such that Restore into a freshly built
// identical machine continues the run bit-identically to one that was
// never interrupted.
//
// Event handlers cannot be serialized as code, so the pending events
// are encoded, in the "heap" section, as (time, seq, tag, payload)
// records where the tag names one of the five handler shapes a running
// machine schedules:
//
//	hCPUStep  — a cpu's "issue next access" record (payload: cpu index)
//	hCPUPend  — a cpu's think-delay pend (payload: cpu index; the pended
//	            address/write bit live in the cpu state)
//	hDelivery — a NoC in-flight message (payload: the message)
//	hSend     — a cache controller's deferred send (payload: node + msg)
//	hDir      — a directory event (payload: node + kind + binding)
//
// Workload cursors are restored by skip-replay: the caller rebuilds each
// thread's stream exactly as the original run did (streams are
// deterministic functions of the job spec), and Restore discards as many
// accesses as the checkpointed cpu had issued. Address-space state is
// restored wholesale afterwards, so replayed translations have no
// side effects to worry about.
//
// Snapshots are only taken at StepCtx window boundaries during the
// measured region (phaseROI): no event is mid-dispatch, warmup
// bookkeeping is gone, and statistics since the reset are part of the
// captured state.

// Handler tags in the encoded heap.
const (
	hCPUStep uint8 = iota + 1
	hCPUPend
	hDelivery
	hSend
	hDir
)

// CanSnapshot reports whether the machine is at a snapshottable point:
// a stepwise run is in its measured region, the invariant checker is
// off (its shadow state is not serializable), and every pending event
// is a registered handler record (no ad-hoc closures).
func (m *Machine) CanSnapshot() bool {
	if m.run == nil || m.run.phase != phaseROI || m.check != nil {
		return false
	}
	ok := true
	m.eachEngine(func(e *sim.Engine) {
		e.ForEachPending(func(at sim.Time, seq uint64, h sim.Handler) {
			if !m.knownHandler(h) {
				ok = false
			}
		})
	})
	return ok
}

func (m *Machine) knownHandler(h sim.Handler) bool {
	switch h.(type) {
	case *cpuStep, *cpu, *delivery:
		return true
	}
	if _, ok := coherence.SendEventOwner(h); ok {
		return true
	}
	if _, ok := core.DirEventOwner(h); ok {
		return true
	}
	return false
}

// Snapshot writes a checkpoint of the running machine to w. The meta
// string travels in the checkpoint header (callers put a job
// fingerprint there and verify it before restoring). The machine is
// not modified; the run continues with another StepCtx.
func (m *Machine) Snapshot(w io.Writer, meta string) error {
	r := m.run
	if r == nil || r.phase != phaseROI {
		return fmt.Errorf("system: snapshot outside the measured region")
	}
	if m.check != nil {
		return fmt.Errorf("system: snapshot with the invariant checker enabled")
	}

	e := checkpoint.NewEncoder(meta)
	e.Section("machine")
	e.Len(m.cfg.Nodes)

	// A sharded machine is checkpointed as if it were serial: at a
	// window barrier every shard clock agrees, so the shard heaps are
	// merged into one canonical heap — ordered by (time, tie-break key,
	// owning tile) — and re-ranked 1..n. The encoded records are then
	// indistinguishable from a serial engine whose sequence counter is
	// n, keeping the checkpoint format identical for every SimThreads
	// and letting a checkpoint written under one thread count resume
	// under any other.
	var merged []mergedEvent
	e.Section("engine")
	if m.shards == nil {
		e.I64(int64(m.eng.Now()))
		e.U64(m.eng.Seq())
		e.U64(m.eng.Fired())
	} else {
		merged = m.mergedHeap()
		e.I64(int64(m.now()))
		e.U64(uint64(len(merged)))
		e.U64(m.Fired())
	}

	e.Section("run")
	e.U64(r.phaseFired)
	e.I64(int64(r.roiStart))

	e.Section("cpus")
	e.Len(len(m.cpus))
	for _, c := range m.cpus {
		e.U64(c.issued)
		e.Bool(c.done)
		e.I64(int64(c.finished))
		e.U64(uint64(c.pendPA))
		e.Bool(c.pendWr)
	}

	m.phys.EncodeState(e)
	e.Len(len(m.spaces))
	for _, s := range m.spaces {
		s.EncodeState(e)
	}
	if m.shards != nil {
		// Same-node messages bypass the mesh on a sharded machine and
		// are counted per shard; fold them into the mesh's statistics
		// so the encoded NoC section matches a serial run's.
		for _, s := range m.shards {
			m.mesh.AbsorbLocalMsgs(s.localMsgs)
			s.localMsgs = 0
		}
	}
	m.mesh.EncodeState(e)

	for _, n := range m.nodes {
		if err := n.cc.EncodeState(e, m.encodeHandler); err != nil {
			return err
		}
		if err := n.dir.EncodeState(e); err != nil {
			return err
		}
		n.dram.EncodeState(e)
	}

	e.Section("heap")
	if m.shards != nil {
		e.Len(len(merged))
		for i := range merged {
			e.I64(int64(merged[i].at))
			e.U64(uint64(i + 1))
			if err := m.encodeHandler(e, merged[i].h); err != nil {
				return err
			}
		}
		return e.Close(w)
	}
	e.Len(m.eng.Pending())
	var heapErr error
	m.eng.ForEachPending(func(at sim.Time, seq uint64, h sim.Handler) {
		if heapErr != nil {
			return
		}
		e.I64(int64(at))
		e.U64(seq)
		heapErr = m.encodeHandler(e, h)
	})
	if heapErr != nil {
		return heapErr
	}
	return e.Close(w)
}

// mergedEvent is one pending event of a sharded machine during heap
// merge: its fire time, tie-break key, and owning tile.
type mergedEvent struct {
	at   sim.Time
	key  uint64
	node mem.NodeID
	h    sim.Handler
}

// mergedHeap flattens every shard heap into canonical serial order.
// Snapshots are only taken at window barriers, where the barrier
// replay has already rewritten every pending key to its dense global
// serial rank — so (at, key) is a total order identical to the serial
// engine's pop order. The owning tile is a defensive residual
// tie-break; it cannot fire on a well-formed heap.
func (m *Machine) mergedHeap() []mergedEvent {
	var items []mergedEvent
	for _, s := range m.shards {
		s.eng.ForEachPending(func(at sim.Time, key uint64, h sim.Handler) {
			n, _ := m.ownerNode(h) // unknown handlers fail in encodeHandler
			items = append(items, mergedEvent{at: at, key: key, node: n, h: h})
		})
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := &items[i], &items[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.node < b.node
	})
	return items
}

// encodeHandler writes one handler record's tag and payload.
func (m *Machine) encodeHandler(e *checkpoint.Encoder, h sim.Handler) error {
	switch v := h.(type) {
	case *cpuStep:
		e.U8(hCPUStep)
		e.U32(uint32(v.c.idx))
		return nil
	case *cpu:
		e.U8(hCPUPend)
		e.U32(uint32(v.idx))
		return nil
	case *delivery:
		e.U8(hDelivery)
		coherence.EncodeMsg(e, v.msg)
		return nil
	}
	if node, ok := coherence.SendEventOwner(h); ok {
		e.U8(hSend)
		e.I64(int64(node))
		m.nodes[node].cc.EncodeSendEvent(e, h)
		return nil
	}
	if node, ok := core.DirEventOwner(h); ok {
		e.U8(hDir)
		e.I64(int64(node))
		m.nodes[node].dir.EncodeEvent(e, h)
		return nil
	}
	if h == nil {
		return fmt.Errorf("system: cannot snapshot a closure event (use typed handlers)")
	}
	return fmt.Errorf("system: cannot snapshot handler type %T", h)
}

// decodeHandler reads one handler record and resolves it against the
// restored machine. Must run after cpus and per-node state are in
// place (directory events bind to the restored transaction tables).
func (m *Machine) decodeHandler(d *checkpoint.Decoder) (sim.Handler, error) {
	tag := d.U8()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case hCPUStep, hCPUPend:
		idx := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(m.cpus) {
			return nil, fmt.Errorf("system: checkpoint references cpu %d of %d", idx, len(m.cpus))
		}
		if tag == hCPUStep {
			return &m.cpus[idx].stepH, nil
		}
		return m.cpus[idx], nil
	case hDelivery:
		msg := coherence.DecodeMsg(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		if msg == nil {
			return nil, fmt.Errorf("system: in-flight delivery without a message")
		}
		if int(msg.Dst) < 0 || int(msg.Dst) >= len(m.nodes) {
			return nil, fmt.Errorf("system: in-flight message to invalid node %d", msg.Dst)
		}
		if m.shards != nil {
			sh := m.shards[m.shardOf[msg.Dst]]
			dl := sh.deliveries.Get()
			dl.m, dl.sh, dl.msg = m, sh, msg
			return dl, nil
		}
		dl := m.deliveries.Get()
		dl.m, dl.msg = m, msg
		return dl, nil
	case hSend, hDir:
		node := int(d.I64())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if node < 0 || node >= len(m.nodes) {
			return nil, fmt.Errorf("system: checkpoint references node %d of %d", node, len(m.nodes))
		}
		if tag == hSend {
			return m.nodes[node].cc.DecodeSendEvent(d)
		}
		return m.nodes[node].dir.DecodeEvent(d)
	default:
		return nil, fmt.Errorf("system: unknown handler tag %d", tag)
	}
}

// Restore loads a checkpoint into a freshly built machine and resumes
// the run it captured. The machine must have been constructed with the
// same Config the checkpoint was taken under (invariant checker off),
// with the same address spaces created in the same order, and threads
// must carry freshly rebuilt streams identical to the original run's
// (Restore fast-forwards each stream past the accesses its cpu had
// already issued). It returns the checkpoint's meta string; callers
// verify it against the expected job fingerprint and discard the
// machine on mismatch. After a successful Restore, drive the run with
// StepCtx/Finish exactly as if Start had been called.
func (m *Machine) Restore(r io.Reader, threads []ThreadSpec) (string, error) {
	if m.run != nil {
		return "", fmt.Errorf("system: restore into a machine with an active run")
	}
	if m.check != nil {
		return "", fmt.Errorf("system: restore with the invariant checker enabled")
	}
	used := false
	m.eachEngine(func(e *sim.Engine) {
		if e.Pending() != 0 || e.Fired() != 0 {
			used = true
		}
	})
	if used {
		return "", fmt.Errorf("system: restore into a used machine")
	}

	d, err := checkpoint.NewDecoder(r)
	if err != nil {
		return "", err
	}
	meta := d.Meta()

	d.Expect("machine")
	nodes := d.Len(m.cfg.Nodes)
	if err := d.Err(); err != nil {
		return meta, err
	}
	if nodes != m.cfg.Nodes {
		return meta, fmt.Errorf("system: checkpoint has %d nodes, machine has %d", nodes, m.cfg.Nodes)
	}

	d.Expect("engine")
	now := sim.Time(d.I64())
	seq := d.U64()
	fired := d.U64()

	d.Expect("run")
	phaseFired := d.U64()
	roiStart := sim.Time(d.I64())

	d.Expect("cpus")
	ncpus := d.Len(len(threads))
	if err := d.Err(); err != nil {
		return meta, err
	}
	if ncpus != len(threads) {
		return meta, fmt.Errorf("system: checkpoint has %d threads, caller supplied %d", ncpus, len(threads))
	}
	for _, t := range threads {
		if int(t.Node) < 0 || int(t.Node) >= m.cfg.Nodes {
			return meta, fmt.Errorf("system: thread pinned to invalid node %d", t.Node)
		}
		if t.Stream == nil || t.Space == nil {
			return meta, fmt.Errorf("system: thread needs a stream and an address space")
		}
	}
	m.cpus = m.cpus[:0]
	for i, t := range threads {
		c := newCPU(m, i, t)
		c.issued = d.U64()
		c.done = d.Bool()
		c.finished = sim.Time(d.I64())
		c.pendPA = mem.PAddr(d.U64())
		c.pendWr = d.Bool()
		if err := d.Err(); err != nil {
			return meta, err
		}
		// Skip-replay: advance the fresh stream past everything this
		// cpu had already issued. Streams are deterministic, so the
		// cursor lands exactly where the snapshot left it.
		for j := uint64(0); j < c.issued; j++ {
			if _, ok := c.spec.Stream.Next(); !ok {
				return meta, fmt.Errorf("system: thread %d stream exhausted at %d of %d checkpointed accesses (stream mismatch?)", i, j, c.issued)
			}
		}
		m.cpus = append(m.cpus, c)
	}

	if err := m.phys.DecodeState(d); err != nil {
		return meta, err
	}
	nspaces := d.Len(len(m.spaces))
	if err := d.Err(); err != nil {
		return meta, err
	}
	if nspaces != len(m.spaces) {
		return meta, fmt.Errorf("system: checkpoint has %d address spaces, machine has %d", nspaces, len(m.spaces))
	}
	for _, s := range m.spaces {
		if err := s.DecodeState(d); err != nil {
			return meta, err
		}
	}
	if err := m.mesh.DecodeState(d); err != nil {
		return meta, err
	}

	for _, n := range m.nodes {
		if err := n.cc.DecodeState(d, m.decodeHandler); err != nil {
			return meta, err
		}
		if err := n.dir.DecodeState(d); err != nil {
			return meta, err
		}
		if err := n.dram.DecodeState(d); err != nil {
			return meta, err
		}
	}

	// The clock must be set before the queue is refilled (RestorePending
	// rejects events in the past), and the queue after every controller
	// (directory events bind to restored transactions). On a sharded
	// machine every shard clock is set to the checkpointed barrier time;
	// the fired count — global, it feeds the event budget — lives on
	// shard 0, which m.Fired sums with the rest.
	var restoreErr error
	m.eachEngine(func(e *sim.Engine) {
		f := fired
		if m.shards != nil && e != m.shards[0].eng {
			f = 0
		}
		if err := e.RestoreClock(now, seq, f); err != nil && restoreErr == nil {
			restoreErr = err
		}
	})
	if restoreErr != nil {
		return meta, restoreErr
	}
	d.Expect("heap")
	pending := d.Len(maxHeapEvents)
	if err := d.Err(); err != nil {
		return meta, err
	}
	var queued []mergedEvent // sharded machines buffer, sort, then insert
	for i := 0; i < pending; i++ {
		at := sim.Time(d.I64())
		sq := d.U64()
		if err := d.Err(); err != nil {
			return meta, err
		}
		h, err := m.decodeHandler(d)
		if err != nil {
			return meta, err
		}
		if m.shards != nil {
			queued = append(queued, mergedEvent{at: at, key: sq, h: h})
			continue
		}
		if err := m.eng.RestorePending(at, sq, h); err != nil {
			return meta, err
		}
	}
	if m.shards != nil {
		// Re-establish canonical order — a serial checkpoint stores its
		// events in queue-visit order (sim.Engine.ForEachPending), not
		// pop order — then re-rank 1..n and distribute each event to the
		// shard owning its tile. The ranks sort below every
		// runtime tie-break key, so restored events fire before anything
		// scheduled after the resume at the same instant, exactly as
		// their original sequence numbers would have made them.
		sort.Slice(queued, func(i, j int) bool {
			if queued[i].at != queued[j].at {
				return queued[i].at < queued[j].at
			}
			return queued[i].key < queued[j].key
		})
		for i := range queued {
			n, ok := m.ownerNode(queued[i].h)
			if !ok {
				return meta, fmt.Errorf("system: restored handler %T has no owning tile", queued[i].h)
			}
			eng := m.shards[m.shardOf[n]].eng
			if err := eng.RestorePending(queued[i].at, uint64(i+1), queued[i].h); err != nil {
				return meta, err
			}
		}
	}
	if err := d.Err(); err != nil {
		return meta, err
	}
	if rem := d.Remaining(); rem != 0 {
		return meta, fmt.Errorf("system: %d bytes of unread checkpoint payload", rem)
	}

	m.run = &runState{
		threads:    threads,
		phase:      phaseROI,
		phaseFired: phaseFired,
		roiStart:   roiStart,
	}
	return meta, nil
}

// maxHeapEvents bounds the decoded event count against corrupt
// checkpoints; a live machine's queue holds at most a few events per
// node.
const maxHeapEvents = 1 << 24
