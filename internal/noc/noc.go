// Package noc models the on-chip interconnect of the simulated machine: a
// 2D mesh with dimension-ordered (XY) routing, per-link serialization and
// contention, and flit-level traffic accounting for the energy model.
//
// The model is message-level: a message's latency is
//
//	hops × linkLatency + serialization + contention waits
//
// which matches wormhole switching to first order (the serialization
// delay is paid once because flits pipeline across hops). Individual
// flits are accounted (for traffic and dynamic energy) but not routed.
package noc

import (
	"fmt"

	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Class distinguishes message sizes for accounting (Table I: 8-byte
// control messages, 72-byte data messages).
type Class uint8

const (
	// Control is a coherence request, probe, or acknowledgement.
	Control Class = iota
	// Data is a message carrying a full cache line.
	Data
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Control {
		return "ctrl"
	}
	return "data"
}

// Config describes the mesh geometry and link parameters.
type Config struct {
	// Width and Height give the mesh dimensions (paper: 4×4).
	Width, Height int
	// LinkLatency is the per-hop traversal latency (paper: 10 ns).
	LinkLatency sim.Time
	// LinkBandwidth is per-link bandwidth in bytes per nanosecond
	// (paper: 8 GB/s = 8 bytes/ns).
	LinkBandwidth float64
	// FlitBytes is the flit size for traffic accounting (paper: 4 bytes).
	FlitBytes int
	// ControlBytes and DataBytes are message sizes (paper: 8 and 72).
	ControlBytes, DataBytes int
	// LocalLatency is the node-internal delivery latency when source and
	// destination are the same node (no NoC traversal, no traffic).
	LocalLatency sim.Time
}

// Validate reports a descriptive error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: mesh dimensions %dx%d invalid", c.Width, c.Height)
	case c.LinkLatency < 0 || c.LocalLatency < 0:
		return fmt.Errorf("noc: negative latency")
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("noc: link bandwidth must be positive")
	case c.FlitBytes <= 0:
		return fmt.Errorf("noc: flit size must be positive")
	case c.ControlBytes <= 0 || c.DataBytes < c.ControlBytes:
		return fmt.Errorf("noc: message sizes must satisfy 0 < control <= data")
	}
	return nil
}

// Stats accumulates interconnect traffic.
type Stats struct {
	Messages    uint64
	CtrlMsgs    uint64
	DataMsgs    uint64
	Bytes       uint64
	Flits       uint64
	FlitHops    uint64 // Σ flits × hops: the dynamic-energy driver
	RouterXings uint64 // Σ flits × (hops+1): router traversals
	LocalMsgs   uint64 // node-internal deliveries (no NoC traversal)
}

// Mesh is the interconnect instance.
type Mesh struct {
	cfg  Config
	free []sim.Time // per directed link: next time the link is free

	// routes holds every XY route back to back, built once by New; the
	// route src→dst is routes[routeOff[p]:routeOff[p+1]] with
	// p = src×Nodes + dst. It grows as Nodes² × mean hops: about 1k
	// entries on the paper's 4×4 mesh.
	routes   []int32
	routeOff []int32
	// class holds each message class's fixed per-message costs.
	class [2]classCost

	stats Stats
}

// classCost is the wire size, flit count and per-link serialization time
// of one message class.
type classCost struct {
	bytes, flits uint64
	ser          sim.Time
}

// New constructs a mesh from cfg. It panics on invalid configuration
// (configuration is validated at the facade; this is an internal type).
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Four directed links per node (E, W, N, S); edge links exist in the
	// slice but are never used by XY routing.
	m := &Mesh{
		cfg:  cfg,
		free: make([]sim.Time, cfg.Width*cfg.Height*4),
	}
	n := m.Nodes()
	total := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			total += m.Hops(mem.NodeID(src), mem.NodeID(dst))
		}
	}
	m.routes = make([]int32, 0, total)
	m.routeOff = make([]int32, n*n+1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			m.routes = m.xyRoute(mem.NodeID(src), mem.NodeID(dst), m.routes)
			m.routeOff[src*n+dst+1] = int32(len(m.routes))
		}
	}
	for _, c := range []Class{Control, Data} {
		bytes := m.BytesFor(c)
		m.class[c] = classCost{
			bytes: uint64(bytes),
			flits: uint64(m.FlitsFor(c)),
			ser:   sim.Time(float64(bytes) / cfg.LinkBandwidth * float64(sim.Nanosecond)),
		}
	}
	return m
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stats returns a copy of accumulated traffic statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// ResetStats zeroes traffic counters; link occupancy state is kept.
func (m *Mesh) ResetStats() { m.stats = Stats{} }

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

func (m *Mesh) coords(n mem.NodeID) (x, y int) {
	return int(n) % m.cfg.Width, int(n) / m.cfg.Width
}

// Hops returns the XY-route hop count between two nodes (Manhattan
// distance).
func (m *Mesh) Hops(src, dst mem.NodeID) int {
	sx, sy := m.coords(src)
	dx, dy := m.coords(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Directed-link direction indices.
const (
	dirE = iota
	dirW
	dirN
	dirS
)

func (m *Mesh) linkID(node mem.NodeID, dir int) int32 { return int32(node)*4 + int32(dir) }

// route returns the directed links of the XY route src→dst from the
// precomputed table. The slice aliases the table and must not be
// modified.
func (m *Mesh) route(src, dst mem.NodeID) []int32 {
	p := int(src)*m.Nodes() + int(dst)
	return m.routes[m.routeOff[p]:m.routeOff[p+1]]
}

// xyRoute appends the directed links of the XY route src→dst to buf.
// New calls it once per node pair to fill the route table.
func (m *Mesh) xyRoute(src, dst mem.NodeID, buf []int32) []int32 {
	x, y := m.coords(src)
	dx, dy := m.coords(dst)
	n := src
	for x != dx {
		if x < dx {
			buf = append(buf, m.linkID(n, dirE))
			x++
		} else {
			buf = append(buf, m.linkID(n, dirW))
			x--
		}
		n = mem.NodeID(y*m.cfg.Width + x)
	}
	for y != dy {
		if y < dy {
			buf = append(buf, m.linkID(n, dirS))
			y++
		} else {
			buf = append(buf, m.linkID(n, dirN))
			y--
		}
		n = mem.NodeID(y*m.cfg.Width + x)
	}
	return buf
}

// BytesFor returns the wire size of a message of the given class.
func (m *Mesh) BytesFor(c Class) int {
	if c == Control {
		return m.cfg.ControlBytes
	}
	return m.cfg.DataBytes
}

// FlitsFor returns the flit count of a message of the given class.
func (m *Mesh) FlitsFor(c Class) int {
	b := m.BytesFor(c)
	return (b + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes
}

// MinCrossLatency returns the smallest latency any node-to-node
// (src != dst) message can have: one hop of link latency plus the
// serialization time of the smallest (control) message, with no
// contention. It is the lookahead bound of conservative parallel
// simulation: a message sent at time t cannot influence another tile
// before t + MinCrossLatency, so shards may drain events independently
// within windows of that width.
func (m *Mesh) MinCrossLatency() sim.Time {
	return m.cfg.LinkLatency + m.class[Control].ser
}

// AbsorbLocalMsgs folds node-internal deliveries counted outside the
// mesh into its statistics. Parallel machines deliver same-node
// messages on the owning shard without touching the mesh (no link
// state is involved) and account them here at collection and
// checkpoint boundaries, keeping Stats and the checkpoint format
// identical to a serial run's.
func (m *Mesh) AbsorbLocalMsgs(n uint64) { m.stats.LocalMsgs += n }

// Send accounts for one message injected at time now and returns its
// arrival time at dst. Node-internal messages (src == dst) are delivered
// after LocalLatency and generate no NoC traffic.
//
// Contention: each directed link on the XY route is occupied for the
// message's serialization time; a message waits for the link to free
// before its head flit advances. Messages on the same route therefore
// arrive in FIFO order.
func (m *Mesh) Send(now sim.Time, src, dst mem.NodeID, class Class) sim.Time {
	if src == dst {
		m.stats.LocalMsgs++
		return now + m.cfg.LocalLatency
	}
	cc := &m.class[class]
	ser := cc.ser
	links := m.route(src, dst)
	t := now
	for _, l := range links {
		start := t
		if m.free[l] > start {
			start = m.free[l]
		}
		m.free[l] = start + ser
		t = start + m.cfg.LinkLatency
	}
	arrival := t + ser // tail flit trails the head by the serialization time

	hops := uint64(len(links))
	m.stats.Messages++
	if class == Control {
		m.stats.CtrlMsgs++
	} else {
		m.stats.DataMsgs++
	}
	m.stats.Bytes += cc.bytes
	m.stats.Flits += cc.flits
	m.stats.FlitHops += cc.flits * hops
	m.stats.RouterXings += cc.flits * (hops + 1)
	return arrival
}
