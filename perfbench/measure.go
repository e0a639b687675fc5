package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sliceDur is the throughput estimator's slice: frames_per_s is the
// median of the per-slice rates over the slices of the timed region. A
// machine stall inflates or empties a few slices and leaves the median
// alone, while every slice still contains its share of GC and of every
// request. Cumulative decided frames are interpolated linearly between
// decision completions at the slice edges, so a rate is not quantized to
// whole decisions.
const sliceDur = 250 * time.Millisecond

// meter collects one timed phase's client-observed outcomes. Decisions
// completing outside [start, start+length) are not counted. It keeps the
// cumulative frames at each slice edge rather than every completion, and
// latencies as float32 in a reserve written before the region, so the
// benchmark's own resident memory does not grow as decisions complete.
type meter struct {
	start  time.Time
	length time.Duration

	mu sync.Mutex
	// lat holds every decision latency in ms, negated for decisions that
	// relayed at least one range. Its capacity is the reserve.
	lat       []float32
	reserved  int
	frames    int64
	decisions int64
	// edges[i] is the cumulative decided frames at the start of slice i
	// (the last entry at the region's end), interpolated linearly between
	// the completions around the edge; filled up to nextEdge.
	edges    []float64
	nextEdge int
	lastAt   time.Duration
	memStart runtime.MemStats
	memEnd   runtime.MemStats
	// steal is the machine's CPU steal over the region in seconds, a
	// printed diagnostic only; negative when /proc/stat is unreadable.
	steal float64
	// rssPeak is the largest resident set sampled in the region, MiB.
	rssPeak float64
}

// rssEvery is the resident-set sampling interval of mem_peak_mb.
const rssEvery = 10 * time.Millisecond

// newMeter reserves room for the latencies of maxRate decisions per
// second over length.
func newMeter(start time.Time, length time.Duration, maxRate float64) *meter {
	m := &meter{start: start, length: length}
	n, _ := m.slices()
	m.edges = make([]float64, n+1)
	m.nextEdge = 1
	m.reserved = int(maxRate * length.Seconds())
	m.lat = reserve[float32](m.reserved)
	return m
}

// reserve returns an empty slice of capacity n whose backing pages have
// been written, so that filling it later does not grow the resident set.
func reserve[T any](n int) []T {
	s := make([]T, n)
	clear(s)
	return s[:0]
}

// decided records one decision covering frames newly decided video
// frames, completed now after latency.
func (m *meter) decided(latency time.Duration, frames int, relayed bool) {
	ms := float32(float64(latency) / 1e6)
	if relayed {
		ms = -ms
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The completion time is read under the lock, so completions arrive
	// in time order.
	off := time.Since(m.start)
	if off < 0 || off >= m.length {
		return
	}
	prev := float64(m.frames)
	next := prev + float64(frames)
	_, slice := m.slices()
	for ; m.nextEdge < len(m.edges); m.nextEdge++ {
		edge := time.Duration(m.nextEdge) * slice
		if edge > off {
			break
		}
		m.edges[m.nextEdge] = prev + (next-prev)*float64(edge-m.lastAt)/float64(off-m.lastAt)
	}
	m.lastAt = off
	m.lat = append(m.lat, ms)
	m.frames += int64(frames)
	m.decisions++
}

// latencies returns the decision latencies, or only the relaying ones, in
// ms.
func (m *meter) latencies(relayOnly bool) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, 0, len(m.lat))
	for _, v := range m.lat {
		relayed := math.Signbit(float64(v))
		if relayOnly && !relayed {
			continue
		}
		out = append(out, math.Abs(float64(v)))
	}
	return out
}

// framesPerS is the median per-slice rate.
func (m *meter) framesPerS() float64 { return median(m.sliceRates()) }

// slices returns the number of slices and their length.
func (m *meter) slices() (int, time.Duration) {
	n := int(m.length / sliceDur)
	if n < 1 {
		n = 1
	}
	return n, m.length / time.Duration(n)
}

// sliceRates returns the decided-frame rate of every slice.
func (m *meter) sliceRates() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Edges after the last completion hold the final total.
	edges := append([]float64(nil), m.edges...)
	for i := m.nextEdge; i < len(edges); i++ {
		edges[i] = float64(m.frames)
	}
	n, slice := m.slices()
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = (edges[i+1] - edges[i]) / slice.Seconds()
	}
	return rates
}

// clockTick is the kernel's accounting tick (USER_HZ) in seconds.
const clockTick = 0.01

// readSteal returns the machine's cumulative CPU steal in seconds from
// the first line of /proc/stat. Runs print it beside their timings so a
// run on a contended host stands out; no metric is adjusted by it.
func readSteal() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return v * clockTick, true
}

// allocKBPerKFrame is heap bytes allocated in the phase per 1000 frames.
func (m *meter) allocKBPerKFrame() float64 {
	if m.frames == 0 {
		return 0
	}
	return float64(m.memEnd.TotalAlloc-m.memStart.TotalAlloc) / 1024 / float64(m.frames) * 1000
}

func (m *meter) gcPerKFrame() float64 {
	if m.frames == 0 {
		return 0
	}
	return float64(m.memEnd.NumGC-m.memStart.NumGC) / float64(m.frames) * 1000
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest of p90/p99/p99.9 with at least ten samples
// beyond it, its label, and ok=false when the sample is too small for
// any tail (fewer than forty samples, or under ten beyond p90).
func tail(v []float64) (label string, value float64, ok bool) {
	if len(v) < 40 {
		return "", 0, false
	}
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(v))*(1-c.q) >= 10 {
			return c.label, quantile(v, c.q), true
		}
	}
	return "", 0, false
}

// rssMiB reads a resident-set field of /proc/self/status (VmRSS for the
// current size, VmHWM for the process's peak) in MiB.
func rssMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// refSink keeps the reference loop's result live.
var refSink uint64

// cpuReference times a fixed integer loop and returns ns per iteration.
// It is printed at the start and end of every run, never reported as a
// metric: a run on a slowed machine stands out by it.
func cpuReference() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return float64(time.Since(t0).Nanoseconds()) / iters
}
