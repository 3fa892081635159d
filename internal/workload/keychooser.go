// Package workload implements the paper's benchmark workloads against the
// engine-neutral storage interface: YCSB (Table III), TPC-B, and the TPC-C
// subset (NewOrder + Payment) used in §V-D, plus the key-distribution
// generators they need (uniform, scrambled zipfian, latest).
package workload

import (
	"math"
	"math/rand"
)

// KeyChooser picks keys from [0, n).
type KeyChooser interface {
	Next(rng *rand.Rand) uint64
}

// Uniform picks uniformly from [0, N).
type Uniform struct {
	N uint64
}

// Next implements KeyChooser.
func (u Uniform) Next(rng *rand.Rand) uint64 {
	return uint64(rng.Int63n(int64(u.N)))
}

// Zipfian picks from [0, N) with the YCSB zipfian constant. Item 0 is the
// most popular.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// YCSBTheta is the YCSB default zipfian skew.
const YCSBTheta = 0.99

// NewZipfian precomputes the distribution for n items.
func NewZipfian(n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / pow(float64(i), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Next implements KeyChooser (Gray et al.'s quick zipfian algorithm, as
// used by YCSB).
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledZipfian spreads the zipfian hot items across the key space by
// hashing, matching YCSB's scrambled_zipfian.
type ScrambledZipfian struct {
	z *Zipfian
	n uint64
}

// NewScrambledZipfian builds the YCSB default request distribution.
func NewScrambledZipfian(n uint64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n, YCSBTheta), n: n}
}

// Next implements KeyChooser.
func (s *ScrambledZipfian) Next(rng *rand.Rand) uint64 {
	return fnvHash64(s.z.Next(rng)) % s.n
}

func fnvHash64(v uint64) uint64 {
	const offset = 0xCBF29CE484222325
	const prime = 0x100000001B3
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= prime
		v >>= 8
	}
	return h
}

// Latest favors recently-inserted keys (YCSB workload D). Inserting
// workers advance the bound with SetMax; the worker actors that share one
// chooser run one at a time, so the bound is plain memory.
type Latest struct {
	z   *Zipfian
	max uint64 // exclusive upper bound; most recent key = max-1
}

// NewLatest builds a latest-distribution chooser over [0, max).
func NewLatest(max uint64) *Latest {
	return &Latest{z: NewZipfian(max, YCSBTheta), max: max}
}

// SetMax advances the insertion horizon.
func (l *Latest) SetMax(max uint64) {
	if max > l.max {
		l.max = max
	}
}

// Next implements KeyChooser.
func (l *Latest) Next(rng *rand.Rand) uint64 {
	max := l.max
	off := l.z.Next(rng)
	if off >= max {
		off = max - 1
	}
	return max - 1 - off
}

// Rotating wraps a chooser over [0, N) and rotates its output by a
// caller-supplied offset: key = (inner + Offset()) mod N. With a zipfian
// inner chooser the popular items sit at the offset, so advancing the
// offset over time models a moving hot set — the "hot-key storm with a
// shifting hot set" ingredient of the traffic simulator's scenarios.
// Offset is read per draw; it may be a constant or derive from virtual
// time, and must itself be deterministic for reproducible runs.
type Rotating struct {
	Inner  KeyChooser
	N      uint64
	Offset func() uint64
}

// Next implements KeyChooser.
func (r Rotating) Next(rng *rand.Rand) uint64 {
	k := r.Inner.Next(rng)
	if r.Offset != nil {
		k += r.Offset()
	}
	return k % r.N
}
