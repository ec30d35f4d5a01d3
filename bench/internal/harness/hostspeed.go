package harness

import (
	"sort"
	"time"
)

// The sandbox this benchmark runs in shares its cores with other tenants:
// identical work takes 10-30 % longer or shorter from one ten-second
// window to the next, which is more than the changes the benchmark has to
// resolve. The drift is slow, so it cannot be averaged out inside a run;
// it can be measured. A Calibrator times a fixed unit of work — hand-offs
// between two goroutines over unbuffered channels, the operation the
// simulator's own context switches consist of and the one whose cost
// tracks the drift best (see the README's steadiness notes) — every few
// milliseconds alongside the workload. The ratio of that unit's time to
// its time on the reference host is the pass's host factor, and every
// reported time is divided by it: metrics read as if measured on a host
// of reference speed. The raw values and the factor are reported too.
const (
	calibTrips = 100                  // round trips per calibration unit
	calibEvery = 4 * time.Millisecond // workload time between two units
	// calibNominalNS is what one unit takes on the reference host (the
	// 2-core box the sizes were measured on, in a quiet moment).
	calibNominalNS = 40000.0
)

// Calibrator measures host speed by timing goroutine hand-offs. It
// belongs to one goroutine at a time. Every method but NewCalibrator is
// a no-op on nil, whose factor is 1.
type Calibrator struct {
	ping, pong chan struct{}
	last       time.Time
	unitsNS    []float64
	total      time.Duration
}

// NewCalibrator starts the echo goroutine and takes a first sample.
func NewCalibrator() *Calibrator {
	c := &Calibrator{ping: make(chan struct{}), pong: make(chan struct{})}
	go func() {
		for range c.ping {
			c.pong <- struct{}{}
		}
	}()
	c.Sample()
	return c
}

// Sample times one calibration unit.
func (c *Calibrator) Sample() {
	if c == nil {
		return
	}
	t := time.Now()
	for i := 0; i < calibTrips; i++ {
		c.ping <- struct{}{}
		<-c.pong
	}
	d := time.Since(t)
	c.unitsNS = append(c.unitsNS, float64(d.Nanoseconds()))
	c.total += d
	c.last = time.Now()
}

// Tick samples when at least calibEvery has passed since the last sample,
// so samples are spread evenly over the time the workload runs.
func (c *Calibrator) Tick() {
	if c != nil && time.Since(c.last) >= calibEvery {
		c.Sample()
	}
}

// Stop ends the echo goroutine.
func (c *Calibrator) Stop() {
	if c != nil {
		close(c.ping)
	}
}

// Total is the time spent sampling so far.
func (c *Calibrator) Total() time.Duration {
	if c == nil {
		return 0
	}
	return c.total
}

// Factor is how much slower than the reference host this host ran over
// the samples taken so far: the mean of the middle four fifths of the
// unit times (a unit that a garbage collection or a preemption landed in
// is not host speed) over the reference time.
func (c *Calibrator) Factor() float64 {
	if c == nil {
		return 1
	}
	ns := append([]float64(nil), c.unitsNS...)
	sort.Float64s(ns)
	trim := len(ns) / 10
	ns = ns[trim : len(ns)-trim]
	sum := 0.0
	for _, v := range ns {
		sum += v
	}
	return sum / float64(len(ns)) / calibNominalNS
}
