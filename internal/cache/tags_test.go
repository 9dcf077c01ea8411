package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"allarm/internal/checkpoint"
	"allarm/internal/mem"
)

// refFind locates lineAddr by scanning the Line array directly: a way
// is valid when its state is (Insert rejects Invalid lines and Remove
// zeroes the slot), so it needs no tag array.
func refFind(c *Cache, lineAddr mem.PAddr) int {
	base := c.SetIndex(lineAddr) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].State.Valid() && c.lines[i].Addr == lineAddr {
			return i
		}
	}
	return -1
}

// checkTags verifies that the packed tags mirror the line array.
func checkTags(t *testing.T, c *Cache, step int) {
	t.Helper()
	for i := range c.lines {
		l := &c.lines[i]
		want := mem.PAddr(0)
		if l.State.Valid() {
			want = l.Addr | 1
		} else if *l != (Line{}) {
			t.Fatalf("step %d: empty way %d holds %+v", step, i, *l)
		}
		if c.tags[i] != want {
			t.Fatalf("step %d: tags[%d] = %#x, want %#x", step, i, uint64(c.tags[i]), uint64(want))
		}
	}
}

func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Fatalf("sizeof(Line) = %d, want 32", got)
	}
}

// TestTagsMatchReference drives random Insert/Lookup/Peek/Remove
// sequences and checks every answer against a scan of the Line array.
func TestTagsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New("t", 16*mem.LineBytes, 4) // 4 sets × 4 ways
	states := []State{Shared, Exclusive, Owned, Modified}
	for step := 0; step < 20000; step++ {
		// Line 0 is included: its tag is 1, never the empty marker.
		a := line(rng.Intn(40))
		want := refFind(c, a)
		switch rng.Intn(4) {
		case 0:
			if want >= 0 {
				continue
			}
			tick := c.tick
			_, evicted := c.Insert(Line{Addr: a, State: states[rng.Intn(len(states))], Version: uint64(step)})
			if c.tick != tick+1 || refFind(c, a) < 0 {
				t.Fatalf("step %d: insert of %#x (evicted=%v) not found", step, uint64(a), evicted)
			}
		case 1:
			l := c.Lookup(a + 5) // unaligned addresses resolve to their line
			if (l == nil) != (want < 0) || (l != nil && l != &c.lines[want]) {
				t.Fatalf("step %d: Lookup(%#x) = %p, reference way %d", step, uint64(a), l, want)
			}
			if l != nil && l.lru != c.tick {
				t.Fatalf("step %d: Lookup did not refresh LRU", step)
			}
		case 2:
			tick := c.tick
			l := c.Peek(a)
			if (l == nil) != (want < 0) || (l != nil && l != &c.lines[want]) {
				t.Fatalf("step %d: Peek(%#x) = %p, reference way %d", step, uint64(a), l, want)
			}
			if c.tick != tick {
				t.Fatalf("step %d: Peek touched LRU", step)
			}
		case 3:
			var held Line
			if want >= 0 {
				held = c.lines[want]
			}
			l, ok := c.Remove(a)
			if ok != (want >= 0) || l != held {
				t.Fatalf("step %d: Remove(%#x) = %+v,%v; reference %+v", step, uint64(a), l, ok, held)
			}
		}
		checkTags(t, c, step)
	}
	if c.CountValid() == 0 {
		t.Fatal("sequence left the cache empty; the test exercised nothing")
	}

	// A checkpoint round trip restores both arrays exactly.
	e := checkpoint.NewEncoder("m")
	c.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := checkpoint.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := New("t", 16*mem.LineBytes, 4)
	if err := r.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.lines, c.lines) || !reflect.DeepEqual(r.tags, c.tags) || r.tick != c.tick {
		t.Fatal("EncodeState/DecodeState round trip changed the cache")
	}
	checkTags(t, r, -1)
}

// BenchmarkCachePeek measures the probe path's tag match on an L2-sized
// cache with a mostly-miss mix: one probe in eight finds its line, the
// rest scan a full set and miss, as back-invalidation broadcasts do.
func BenchmarkCachePeek(b *testing.B) {
	c := New("L2", 512<<10, 8)
	n := c.Sets() * c.Ways()
	for i := 0; i < n; i++ {
		c.Insert(Line{Addr: line(i), State: Shared})
	}
	probes := make([]mem.PAddr, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range probes {
		if i%8 == 0 {
			probes[i] = line(rng.Intn(n))
		} else {
			probes[i] = line(n + rng.Intn(n))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if c.Peek(probes[i&(len(probes)-1)]) != nil {
			hits++
		}
	}
	if hits == 0 {
		b.Fatal("no probe hit")
	}
}
