package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/harness"
)

const (
	// warmUp runs the same client loops before the window opens, so the
	// plan cache, the adaptive tuner and the connections are warm.
	warmUp = 2 * time.Second
	// segments is how many equal parts the measured window is split
	// into; every timing and throughput metric is computed per segment
	// and reported as the median of the segments.
	segments = 5
	// requestTimeout bounds one HTTP request from a benchmark client.
	requestTimeout = 20 * time.Second
)

// loop is one client: it sends requests until stop is set, recording
// each sample's completion time relative to t0 (negative during warm-up).
type loop func(c *harness.Client, t0 time.Time, stop *atomic.Bool)

// window is what the driver itself observed around the measured window.
type window struct {
	dur       time.Duration
	serverCPU []float64 // summed server CPU seconds at each segment boundary
	genCPU    [2]float64
	before    map[*harness.Proc]harness.ServerStats
	after     map[*harness.Proc]harness.ServerStats
	lagMax    uint64 // largest replica lag seen at the 1 Hz samples
}

// measure runs the loops through warm-up and the measured window and
// takes the CPU and /stats readings at the segment boundaries. lagOf, if
// set, is sampled once a second for the replica's lag.
func measure(servers []*harness.Proc, dur time.Duration, loops []loop, lagOf *harness.Proc) (*window, error) {
	w := &window{
		dur:    dur,
		before: map[*harness.Proc]harness.ServerStats{},
		after:  map[*harness.Proc]harness.ServerStats{},
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now().Add(warmUp)
	for _, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := harness.NewClient(requestTimeout)
			defer c.Close()
			l(c, t0, &stop)
		}()
	}
	err := w.observe(servers, t0, lagOf)
	stop.Store(true)
	wg.Wait()
	return w, err
}

// observe sleeps from boundary to boundary, reading what must be read at
// each, and fails early if a server dies under the load.
func (w *window) observe(servers []*harness.Proc, t0 time.Time, lagOf *harness.Proc) error {
	c := harness.NewClient(requestTimeout)
	defer c.Close()
	snapshot := func(into map[*harness.Proc]harness.ServerStats) error {
		for _, p := range servers {
			st, err := p.Stats(c)
			if err != nil {
				return fmt.Errorf("%s /stats: %w", p.Name, err)
			}
			into[p] = st
		}
		return nil
	}
	seg := w.dur / segments
	nextLag := t0
	for i := 0; i <= segments; i++ {
		boundary := t0.Add(time.Duration(i) * seg)
		for time.Now().Before(boundary) {
			if lagOf != nil && !time.Now().Before(nextLag) {
				nextLag = nextLag.Add(time.Second)
				if st, err := lagOf.Stats(c); err == nil && st.Replication != nil {
					w.lagMax = max(w.lagMax, st.Replication.Lag)
				}
			}
			time.Sleep(min(time.Until(boundary), 50*time.Millisecond))
			for _, p := range servers {
				if p.Exited() {
					return fmt.Errorf("%s exited during the run; stderr tail:\n%s", p.Name, p.StderrTail())
				}
			}
		}
		cpu := 0.0
		for _, p := range servers {
			s, err := p.CPUSeconds()
			if err != nil {
				return fmt.Errorf("%s cpu: %w", p.Name, err)
			}
			cpu += s
		}
		w.serverCPU = append(w.serverCPU, cpu)
		switch i {
		case 0:
			w.genCPU[0] = harness.SelfCPUSeconds()
			if err := snapshot(w.before); err != nil {
				return err
			}
		case segments:
			w.genCPU[1] = harness.SelfCPUSeconds()
			if err := snapshot(w.after); err != nil {
				return err
			}
		}
	}
	return nil
}

// cpuPerKop returns server CPU seconds per 1,000 successful operations,
// per segment: okPerSegment[i] operations completed in segment i.
func (w *window) cpuPerKop(okPerSegment []int) harness.Spread {
	var vals []float64
	total := 0
	for i, n := range okPerSegment {
		total += n
		if n > 0 {
			vals = append(vals, (w.serverCPU[i+1]-w.serverCPU[i])/float64(n)*1000)
		}
	}
	return harness.SpreadOf(vals, total)
}

// genCPUShare returns the generator's share of all CPU used during the
// window, and how busy that use kept the machine's cores.
func (w *window) genCPUShare() (share, busy float64) {
	g := w.genCPU[1] - w.genCPU[0]
	s := w.serverCPU[segments] - w.serverCPU[0]
	if g+s == 0 {
		return 0, 0
	}
	return g / (g + s), (g + s) / (w.dur.Seconds() * float64(runtime.NumCPU()))
}

// okPerSegment counts successful samples by segment.
func okPerSegment(dur time.Duration, sets ...[]harness.Sample) []int {
	out := make([]int, segments)
	seg := dur / segments
	for _, samples := range sets {
		for _, s := range samples {
			if s.OK && s.End >= 0 && s.End < dur {
				out[int(s.End/seg)]++
			}
		}
	}
	return out
}
