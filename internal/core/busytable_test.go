package core

import (
	"testing"

	"allarm/internal/mem"
)

// busyFuzzPool returns the line addresses FuzzBusyTable draws from, in
// three families that stress the probing logic of a 64-slot table:
//
//   - clusters: four lines homed at each of the slots 60–63 and 0–3, so
//     probe runs wrap past the last slot and deletes land mid-run;
//   - same low bits: lines one 64-line stride apart (equal low six bits
//     of the line number, the pattern an identity hash would pile up);
//   - spread: forty further distinct lines, enough to grow the table
//     past 32 live entries.
func busyFuzzPool() []mem.PAddr {
	probe := busyTable{shift: 64 - 6} // the 64-slot geometry
	var pool []mem.PAddr
	seen := map[mem.PAddr]bool{}
	add := func(a mem.PAddr) {
		if !seen[a] {
			seen[a] = true
			pool = append(pool, a)
		}
	}
	for _, slot := range []int{60, 61, 62, 63, 0, 1, 2, 3} {
		found := 0
		for ln := uint64(0); found < 4; ln++ {
			a := mem.PAddr(ln * mem.LineBytes)
			if probe.home(a) == slot && !seen[a] {
				add(a)
				found++
			}
		}
	}
	for k := uint64(0); k < 16; k++ {
		add(mem.PAddr((k*64 + 5) * mem.LineBytes))
	}
	for ln := uint64(1 << 20); len(pool) < 32+16+40; ln += 7 {
		add(mem.PAddr(ln * mem.LineBytes))
	}
	return pool
}

// FuzzBusyTable checks the busy table differentially against a map: the
// fuzz bytes decode into put/get/del operations on colliding line
// addresses, and after each one every pooled address must look up
// exactly as in the model.
func FuzzBusyTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 3, 0, 3, 2})
	f.Add([]byte{0, 32, 0, 33, 0, 34, 2, 32, 3, 33, 1, 35, 2, 34})
	grow := make([]byte, 0, 2*88+8)
	for i := byte(0); i < 88; i++ {
		grow = append(grow, 0, i)
	}
	grow = append(grow, 2, 40, 2, 3, 2, 70, 3, 70)
	f.Add(grow)
	pool := busyFuzzPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		var b busyTable
		model := map[mem.PAddr]*txn{}
		var id uint64
		for len(data) >= 2 {
			op, a := data[0]%4, pool[int(data[1])%len(pool)]
			data = data[2:]
			switch op {
			case 0, 1:
				id++
				tx := &txn{id: id, addr: a}
				b.put(tx)
				model[a] = tx
			case 2:
				b.del(a)
				delete(model, a)
			case 3:
				// A lookup alone; the sweep below checks it.
			}
			if b.len() != len(model) {
				t.Fatalf("len %d, model has %d", b.len(), len(model))
			}
			for _, p := range pool {
				if got, want := b.get(p), model[p]; got != want {
					t.Fatalf("get(%#x) = %v, model has %v", uint64(p), got, want)
				}
			}
			n := 0
			b.each(func(*txn) { n++ })
			if n != len(model) {
				t.Fatalf("each visited %d entries, model has %d", n, len(model))
			}
		}
	})
}

// BenchmarkBusyTable measures the directory's busy-line churn: about 20
// live lines, each iteration looking one up, retiring it and marking a
// new line busy.
func BenchmarkBusyTable(b *testing.B) {
	const live = 20
	var bt busyTable
	txns := make([]txn, 64)
	for i := range txns {
		txns[i].addr = mem.PAddr(uint64(i*37+11) * mem.LineBytes)
	}
	for i := 0; i < live; i++ {
		bt.put(&txns[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := &txns[i%len(txns)]
		if bt.get(old.addr) != old {
			b.Fatal("live line not found")
		}
		bt.del(old.addr)
		bt.put(&txns[(i+live)%len(txns)])
	}
}
