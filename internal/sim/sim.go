// Package sim provides the deterministic substrate for the OSIRIS
// simulation: a virtual cycle clock, a seeded pseudo-random number
// generator, and named counters.
//
// Nothing in this package spawns goroutines or reads wall-clock time;
// every run of the simulator is a pure function of its seed and inputs.
package sim

import "sync"

// Cycles is a quantity of virtual CPU cycles. All simulated costs —
// computation, IPC hops, undo-log appends — are expressed in cycles, and
// all performance results are derived from cycle counts.
type Cycles uint64

// Clock is the virtual cycle clock shared by an entire simulated machine.
// The zero value is a clock at time zero, ready to use.
type Clock struct {
	now Cycles
}

// Now reports the current virtual time.
func (c *Clock) Now() Cycles { return c.now }

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n Cycles) { c.now += n }

// RNG is a deterministic xorshift64* pseudo-random number generator.
// It is deliberately not safe for concurrent use: the simulator runs
// one process at a time by construction.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is replaced
// with a fixed non-zero constant because xorshift has a zero fixpoint.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// State returns the generator's internal state word. For a fixed seed
// the state is a bijection of the number of draws taken, so comparing
// two states is an exact "same draw count" test — the elision plane
// uses it to prove a run's suffix consumed no machine randomness.
func (r *RNG) State() uint64 { return r.state }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0,
// matching math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// CounterID is the fixed slot index of a counter registered with
// RegisterCounter. Hot paths increment counters by ID — one array
// store — instead of a string-keyed map operation; the name is only
// consulted by Get and Snapshot.
type CounterID int32

// counterRegistry is the process-wide name→slot table. Registration
// happens at package init time (each package registers the counters it
// owns as package-level vars), so the lock is uncontended at runtime;
// hot-path AddID never touches it.
var counterRegistry = struct {
	sync.RWMutex
	ids   map[string]CounterID
	names []string
}{ids: make(map[string]CounterID)}

// RegisterCounter allocates (or returns the existing) fixed slot for a
// counter name. It is for package-level var initialization: a counter
// set has slots only for the counters registered before it was made.
// It is safe for concurrent use.
func RegisterCounter(name string) CounterID {
	counterRegistry.Lock()
	defer counterRegistry.Unlock()
	if id, ok := counterRegistry.ids[name]; ok {
		return id
	}
	id := CounterID(len(counterRegistry.names))
	counterRegistry.ids[name] = id
	counterRegistry.names = append(counterRegistry.names, name)
	return id
}

// LookupCounter resolves a name to its registered slot.
func LookupCounter(name string) (CounterID, bool) {
	counterRegistry.RLock()
	id, ok := counterRegistry.ids[name]
	counterRegistry.RUnlock()
	return id, ok
}

// registeredCounterName returns the name of slot id.
func registeredCounterName(id CounterID) string {
	counterRegistry.RLock()
	defer counterRegistry.RUnlock()
	return counterRegistry.names[id]
}

// Counters is a set of named uint64 counters used for simulation
// statistics (messages sent, stores logged, faults injected, ...): one
// value and one touched mark per registered slot. Like the rest of the
// simulation substrate it is not safe for concurrent use; each
// simulated machine owns one instance.
type Counters struct {
	slots   []uint64
	touched []bool
}

// NewCounters returns an empty counter set sized to the registered
// slots.
func NewCounters() *Counters {
	counterRegistry.RLock()
	n := len(counterRegistry.names)
	counterRegistry.RUnlock()
	return &Counters{
		slots:   make([]uint64, n),
		touched: make([]bool, n),
	}
}

// AddID increments the registered counter id by n. This is the hot
// path: an array store with no hashing or locking.
func (c *Counters) AddID(id CounterID, n uint64) {
	c.slots[id] += n
	c.touched[id] = true
}

// GetID reports the current value of the registered counter id.
func (c *Counters) GetID(id CounterID) uint64 { return c.slots[id] }

// Get reports the current value of counter name (zero if the name is
// not registered or was never set).
func (c *Counters) Get(name string) uint64 {
	if id, ok := LookupCounter(name); ok {
		return c.GetID(id)
	}
	return 0
}

// Clone returns an independent deep copy of the counter set. Used when
// snapshotting a machine for warm forking.
func (c *Counters) Clone() *Counters {
	out := new(Counters)
	out.CopyFrom(c)
	return out
}

// CopyFrom overwrites this counter set in place with a deep copy of
// src. In-place restore keeps every pointer other subsystems hold to
// this set (stores, kernels) valid across a warm-fork image apply.
func (c *Counters) CopyFrom(src *Counters) {
	c.slots = append(c.slots[:0], src.slots...)
	c.touched = append(c.touched[:0], src.touched...)
}

// Snapshot returns a copy of the counters ever touched, by name.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.slots))
	for id, t := range c.touched {
		if t {
			out[registeredCounterName(CounterID(id))] = c.slots[id]
		}
	}
	return out
}

// Hash is the one state-hash primitive of the tree: FNV-1a absorption
// closed by the splitmix64 finisher. Every state fingerprint — kernel,
// store containers, disk blocks and the folds that chain them — goes
// through it, so "equal fingerprint" means the same arithmetic at every
// layer.
type Hash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHash returns an empty hash.
func NewHash() Hash { return fnvOffset }

// Word absorbs v as a single symbol (one FNV-1a round).
func (h *Hash) Word(v uint64) { *h = (*h ^ Hash(v)) * fnvPrime }

// U64 absorbs v as its eight little-endian bytes.
func (h *Hash) U64(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x = (x ^ Hash(v&0xff)) * fnvPrime
		v >>= 8
	}
	*h = x
}

// Bytes absorbs b byte by byte.
func (h *Hash) Bytes(b []byte) {
	x := *h
	for _, c := range b {
		x = (x ^ Hash(c)) * fnvPrime
	}
	*h = x
}

// Zeros absorbs n zero bytes, as Bytes would, in O(log n): FNV-1a takes
// a zero byte as one multiply by the prime, so n of them are one
// multiply by the prime to the n.
func (h *Hash) Zeros(n int) {
	x, p := *h, Hash(fnvPrime)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			x *= p
		}
		p *= p
	}
	*h = x
}

// Text absorbs the bytes of s.
func (h *Hash) Text(s string) {
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ Hash(s[i])) * fnvPrime
	}
	*h = x
}

// Sum returns the finished hash; h itself is unchanged.
func (h Hash) Sum() uint64 { return Mix64(uint64(h)) }

// Mix64 is the splitmix64 finisher: an avalanche over one word, so that
// hashes combined by wrapping addition or xor do not cancel structured
// differences.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
