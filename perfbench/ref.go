package main

import (
	"runtime/metrics"
	"time"
)

// The reference kernel is a fixed slice of work timed immediately before
// and after every timed op and every set-up step. Every host-time metric
// is reported as t_raw × R0 / mean(ref_before, ref_after), so a host that
// runs everything slower for a while slows the reference in step and the
// slowdown cancels out: a 2-vCPU cloud VM was seen to switch between
// speed states about 1.65x apart, each lasting tens of seconds, with CPU
// time slowing along with wall time, so neither raw wall time nor CPU
// time is steady there.
//
// The kernel mimics the simulator's instruction mix — hash-map probes,
// inserts and deletes over an L2-sized key set, plus set-indexed array
// updates — because kernels without that mix (a latency-bound pointer
// walk, a pure-ALU loop) stayed flat through the slow phases. It imports
// nothing from the repository, so no change to the program can move it.
// Its code, its sizes and R0 are frozen: changing any of them rescales
// every adjusted time ever recorded.
const (
	refKeys  = 1 << 15 // resident map keys: about 1 MB of table
	refSets  = 1 << 12 // rows of the set-indexed array
	refWays  = 8       // columns of the set-indexed array
	refIters = 3 << 17 // kernel steps per sample (~12 ms)
	// refRetakes bounds how often one sample is retaken because a GC
	// cycle overlapped it; the last take is accepted as it is.
	refRetakes = 4
)

// refKernel is the reference kernel's state. It allocates nothing after
// construction.
type refKernel struct {
	m    map[uint64]uint64
	keys []uint64
	sets []uint32
	x    uint64 // xorshift state
	sink uint64 // keeps the probes' results live
}

func newRefKernel() *refKernel {
	k := &refKernel{
		m:    make(map[uint64]uint64, refKeys),
		keys: make([]uint64, refKeys),
		sets: make([]uint32, refSets*refWays),
		x:    0x9e3779b97f4a7c15,
	}
	for i := range k.keys {
		key := splitmix(uint64(i))
		k.keys[i] = key
		k.m[key] = uint64(i)
	}
	return k
}

// splitmix is the splitmix64 finalizer: it spreads small integers over
// the whole key space.
func splitmix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
	v = (v ^ v>>27) * 0x94d049bb133111eb
	return v ^ v>>31
}

// run executes one pass of the kernel. Every delete is followed by a
// re-insert of the same key, so the map never grows and the pass
// allocates nothing.
func (k *refKernel) run() {
	x, acc := k.x, uint64(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := k.keys[x&(refKeys-1)]
		switch x >> 61 {
		case 0:
			delete(k.m, key)
			k.m[key] = x
		case 1:
			k.m[key] += x
		case 2:
			// Probe a key that is (almost surely) absent.
			if v, ok := k.m[key^1]; ok {
				acc += v
			}
		default:
			acc += k.m[key]
		}
		set := (key >> 7) & (refSets - 1)
		k.sets[set*refWays+(x>>58)&(refWays-1)]++
	}
	k.x = x
	k.sink += acc
}

// refSampler takes reference samples. A sample that a GC cycle overlapped
// is retaken: the collector's work slows the kernel, but it is not host
// speed, which is all a sample may measure.
type refSampler struct {
	run     func()
	cycles  func() uint64 // completed GC cycles so far
	retakes int           // samples retaken over the sampler's life
}

func newRefSampler() *refSampler {
	return &refSampler{run: newRefKernel().run, cycles: gcCycles}
}

// gcCycleSample is read only from the benchmark's main goroutine.
var gcCycleSample = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}

func gcCycles() uint64 {
	metrics.Read(gcCycleSample)
	return gcCycleSample[0].Value.Uint64()
}

// sample times one kernel pass and returns its duration in seconds.
func (s *refSampler) sample() float64 {
	for take := 0; ; take++ {
		gc := s.cycles()
		t0 := time.Now()
		s.run()
		d := time.Since(t0).Seconds()
		if s.cycles() == gc || take == refRetakes {
			return d
		}
		s.retakes++
	}
}

// refFactor is what a raw host time bracketed by the reference samples
// refBefore and refAfter is multiplied by to give the time the work would
// have taken on a host where one reference pass takes r0.
func refFactor(refBefore, refAfter, r0 float64) float64 {
	return r0 / ((refBefore + refAfter) / 2)
}
