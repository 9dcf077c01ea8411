package allarm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	allarm "allarm"
)

// refConfigKey mirrors Config's behaviour-affecting fields in Config's
// order. Printed with %+v it is the reference rendering Job.Key must
// reproduce byte for byte: the form every cached result, checkpoint
// fingerprint and fleet placement was addressed by.
type refConfigKey struct {
	Threads           int
	AccessesPerThread int
	Seed              uint64

	Policy       allarm.Policy
	ALLARMRanges []allarm.AddrRange
	MemPolicy    allarm.MemPolicy

	Nodes        int
	MeshW, MeshH int

	L1Bytes, L1Ways int
	L2Bytes, L2Ways int

	PFBytes, PFWays int

	CacheNs, DirNs, DRAMNs, LinkNs float64
	DRAMIntervalNs                 float64

	LinkBytesPerNs             float64
	FlitBytes                  int
	CtrlMsgBytes, DataMsgBytes int

	MemMiBPerNode int

	CheckInvariants bool
	MaxEvents       uint64
}

// refJobKey is the fmt-based rendering of Job.Key.
func refJobKey(j allarm.Job) string {
	wk := "bench:" + j.Benchmark
	if j.Workload != nil {
		if k, ok := j.Workload.(allarm.Keyer); ok {
			wk = "wl:" + k.Key()
		} else {
			wk = fmt.Sprintf("wl:%s#%d", j.Workload.Name(), j.Workload.Threads())
		}
	}
	mp := allarm.MultiProcessConfig{}
	mpActive := j.Workload == nil && j.MultiProcess != nil
	if mpActive {
		mp = *j.MultiProcess
	}
	c := j.Config
	ck := refConfigKey{
		Threads: c.Threads, AccessesPerThread: c.AccessesPerThread, Seed: c.Seed,
		Policy: c.Policy, ALLARMRanges: c.ALLARMRanges, MemPolicy: c.MemPolicy,
		Nodes: c.Nodes, MeshW: c.MeshW, MeshH: c.MeshH,
		L1Bytes: c.L1Bytes, L1Ways: c.L1Ways, L2Bytes: c.L2Bytes, L2Ways: c.L2Ways,
		PFBytes: c.PFBytes, PFWays: c.PFWays,
		CacheNs: c.CacheNs, DirNs: c.DirNs, DRAMNs: c.DRAMNs, LinkNs: c.LinkNs,
		DRAMIntervalNs: c.DRAMIntervalNs, LinkBytesPerNs: c.LinkBytesPerNs,
		FlitBytes: c.FlitBytes, CtrlMsgBytes: c.CtrlMsgBytes, DataMsgBytes: c.DataMsgBytes,
		MemMiBPerNode: c.MemMiBPerNode, CheckInvariants: c.CheckInvariants, MaxEvents: c.MaxEvents,
	}
	return fmt.Sprintf("%s|%t|%+v|%+v", wk, mpActive, mp, ck)
}

// plainWorkload is a Workload without a Key, fingerprinted by name and
// thread count.
type plainWorkload struct {
	name    string
	threads int
}

func (w plainWorkload) Name() string                              { return w.name }
func (w plainWorkload) Threads() int                              { return w.threads }
func (w plainWorkload) Stream(int, uint64) allarm.Stream          { return nil }
func (w plainWorkload) WarmupStream(int, uint64) allarm.Stream    { return nil }
func (w plainWorkload) ForEachPage(func(page uint64, thread int)) {}

// fuzzTrace captures a two-thread, one-access-per-thread replay.
func fuzzTrace(tb testing.TB) allarm.Workload {
	tb.Helper()
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "tiny", Threads: 2,
		Stream: func(thread int, seed uint64) allarm.Stream {
			done := false
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if done {
					return allarm.Access{}, false
				}
				done = true
				return allarm.Access{VAddr: uint64(0x1000 * (thread + 1)), Think: allarm.Nanosecond}, true
			})
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, wl, 7); err != nil {
		tb.Fatal(err)
	}
	trace, err := allarm.ReadTraceNamed(&buf, "fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	return trace
}

// intSource hands out little-endian 8-byte values from fuzz data; past
// its end every value is zero.
type intSource []byte

func (s *intSource) next() uint64 {
	var b [8]byte
	n := copy(b[:], *s)
	*s = (*s)[n:]
	return binary.LittleEndian.Uint64(b[:])
}

func (s *intSource) int() int { return int(s.next()) }

// FuzzJobKey checks Job.Key against the fmt %+v rendering it replaced,
// over every workload kind and arbitrary configurations: negative
// integers, NaN, infinities, negative zero, subnormals, nil and empty
// and multi-range ALLARMRanges, and active and inert multi-process
// sections. kind's low three bits pick the workload (preset name,
// BenchmarkWorkload, programmatic, trace replay, key-less Workload),
// bit 3 attaches a MultiProcess section and bit 4 leaves ALLARMRanges
// nil.
func FuzzJobKey(f *testing.F) {
	trace := fuzzTrace(f)
	presets := allarm.Benchmarks()

	f.Fuzz(func(t *testing.T, kind uint8, name, policy string, ints []byte,
		cacheNs, dirNs, dramNs, linkNs, dramIntervalNs, linkBytesPerNs float64,
		ranges []byte, checkInvariants bool) {
		src := intSource(ints)
		c := allarm.Config{
			Threads: src.int(), AccessesPerThread: src.int(), Seed: src.next(),
			Policy: allarm.Policy(policy), MemPolicy: allarm.MemPolicy(src.int()),
			Nodes: src.int(), MeshW: src.int(), MeshH: src.int(),
			L1Bytes: src.int(), L1Ways: src.int(), L2Bytes: src.int(), L2Ways: src.int(),
			PFBytes: src.int(), PFWays: src.int(),
			CacheNs: cacheNs, DirNs: dirNs, DRAMNs: dramNs, LinkNs: linkNs,
			DRAMIntervalNs: dramIntervalNs, LinkBytesPerNs: linkBytesPerNs,
			FlitBytes: src.int(), CtrlMsgBytes: src.int(), DataMsgBytes: src.int(),
			MemMiBPerNode: src.int(), CheckInvariants: checkInvariants, MaxEvents: src.next(),
			// An execution knob outside the key.
			SimThreads: src.int(),
		}
		if kind&16 == 0 {
			rs := intSource(ranges)
			c.ALLARMRanges = make([]allarm.AddrRange, len(ranges)/16)
			for i := range c.ALLARMRanges {
				c.ALLARMRanges[i] = allarm.AddrRange{Start: rs.next(), End: rs.next()}
			}
		}
		job := allarm.Job{Config: c}
		switch kind & 7 % 5 {
		case 0:
			job.Benchmark = name
		case 1:
			wl, err := allarm.BenchmarkWorkload(presets[len(name)%len(presets)], 1+len(name)%16, 1+len(policy))
			if err != nil {
				t.Fatal(err)
			}
			job.Workload = wl
		case 2:
			wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
				Name: "w" + name, Threads: 1 + len(policy)%255, Key: name,
				Stream: func(int, uint64) allarm.Stream { return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			job.Workload = wl
		case 3:
			job.Workload = trace
		case 4:
			job.Workload = plainWorkload{name: name, threads: len(policy) - 3}
		}
		if kind&8 != 0 {
			job.MultiProcess = &allarm.MultiProcessConfig{Copies: src.int(), FootprintBytes: src.int(), LocalMemBytes: src.int()}
		}
		if got, want := job.Key(), refJobKey(job); got != want {
			t.Fatalf("Job.Key differs from the %%+v rendering:\n got %q\nwant %q", got, want)
		}
	})
}

// TestJobKeyFloatForms pins the float forms %v prints (shortest 'g',
// exponent form from 1e+06 up and below 1e-04, signed zero and
// infinities, unsigned NaN) and multi-range ALLARMRanges, independent
// of the fuzz corpus.
func TestJobKeyFloatForms(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e20, 1e21, 123456, 1234567, 1e-4, 1e-5,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -2.5} {
		job := allarm.Job{Benchmark: "barnes", Config: goldenKeyConfig()}
		job.Config.LinkNs = v
		job.Config.ALLARMRanges = []allarm.AddrRange{{Start: 1, End: 2}, {Start: 1 << 63, End: math.MaxUint64}}
		if got, want := job.Key(), refJobKey(job); got != want {
			t.Errorf("LinkNs %v:\n got %q\nwant %q", v, got, want)
		}
	}
}
