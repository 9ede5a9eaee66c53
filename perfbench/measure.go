package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outcome classifies one attempted operation. Everything but outcomeOK
// counts as failed and as missing any latency limit.
type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeShed
	outcomeTimeout
)

// sample is one attempted operation: its latency, timed per call, and
// how it ended.
type sample struct {
	lat time.Duration
	out outcome
}

// dist is a latency distribution over attempted operations. Failed
// operations stay in the distribution at +Inf, so a request that was
// refused or errored counts as slower than any limit.
type dist struct {
	lat    []float64 // milliseconds, +Inf for failures; sorted by finish
	failed int
}

func (d *dist) add(s sample) {
	if s.out != outcomeOK {
		d.failed++
		d.lat = append(d.lat, math.Inf(1))
		return
	}
	d.lat = append(d.lat, float64(s.lat)/float64(time.Millisecond))
}

func (d *dist) finish() { sort.Float64s(d.lat) }

// quantile returns the q-quantile of the sorted distribution by the
// nearest-rank rule (the smallest value with at least q of the samples
// at or below it). It returns NaN when the distribution is empty.
func (d *dist) quantile(q float64) float64 {
	return nearestRank(d.lat, q)
}

// nearestRank is the nearest-rank quantile of sorted values.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond is how many samples lie strictly above the q-quantile's rank:
// a percentile is reported only when at least ten samples
// lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// median returns the median of values (mean of the middle two for an
// even count); NaN for none. values is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// windowCount is the most windows, up to max, that n samples split into
// with at least ten samples beyond each window's p99.
func windowCount(n, max int) int {
	w := max
	for w > 1 && beyond(n/w, 0.99) < 10 {
		w--
	}
	if w < 1 {
		w = 1
	}
	return w
}

// windowedP99 splits samples (in arrival order) into up to windows
// consecutive windows, each with ten samples beyond its p99, and returns
// the median of the per-window p99s, plus the total sample count. A
// single GC pause or compaction stall then moves one window's p99 rather
// than the reported figure.
func windowedP99(samples []sample, windows int) (p99 float64, n int) {
	n = len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	windows = windowCount(n, windows)
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		var d dist
		for _, s := range samples[w*n/windows : (w+1)*n/windows] {
			d.add(s)
		}
		d.finish()
		per = append(per, d.quantile(0.99))
	}
	return median(per), n
}

// summary is a closed loop's latency distribution in milliseconds, with
// its sample count and throughput.
type summary struct {
	n                   int
	p50, p90, p99, p999 float64 // p99 is the median of per-window p99s
	// rate is operations per second of time busy in calls: the median
	// over rateWindows consecutive windows (about 0.1 s each in a 40 s
	// run), so a CPU-steal burst or fsync stall moves the few windows it
	// hits, not the figure.
	rate float64
}

// rateWindows is how many windows a closed loop's rate is the median of.
const rateWindows = 400

// summarize summarizes a closed loop's samples, with p99 over up to
// windows consecutive windows.
func summarize(samples []sample, windows int) summary {
	var d dist
	for _, s := range samples {
		d.add(s)
	}
	d.finish()
	n := len(samples)
	s := summary{n: n, p50: d.quantile(0.5), p90: d.quantile(0.9), p999: d.quantile(0.999)}
	s.p99, _ = windowedP99(samples, windows)
	rw := rateWindows
	if n < rw {
		rw = n
	}
	rates := make([]float64, 0, rw)
	for w := 0; w < rw; w++ {
		lo, hi := w*n/rw, (w+1)*n/rw
		var busy time.Duration
		for _, x := range samples[lo:hi] {
			busy += x.lat
		}
		rates = append(rates, float64(hi-lo)/busy.Seconds())
	}
	s.rate = median(rates)
	return s
}

// repeatShare is the share of keys that already occurred earlier in the
// list: for plan keys (α, δ, rate, k, n), the share of solves a plan
// memo would have served.
func repeatShare[K comparable](keys []K) float64 {
	if len(keys) == 0 {
		return 0
	}
	seen := make(map[K]bool, len(keys))
	repeats := 0
	for _, k := range keys {
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return float64(repeats) / float64(len(keys))
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
}

func (t *tally) note(out outcome) {
	t.attempted++
	if out != outcomeOK {
		t.failed++
	}
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the high-water resident set size of a process from
// /proc/<pid>/status (VmHWM), in MiB. pid 0 reads this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// rssMark reads the process's peak RSS once a timed window has
// completed after operations, or when the window ends sooner. A fixed
// amount of work, not the window's end, fixes the reading: memory the
// program gains while serving (memo tables, caches, a grown index)
// shows, but a faster program is not charged for the longer receipt
// ledger and sample log that more operations leave behind.
type rssMark struct {
	after int
	mb    float64
	err   error
	read  bool
}

// tick is called with the window's completed operation count.
func (m *rssMark) tick(done int) {
	if m != nil && !m.read && done >= m.after {
		m.take()
	}
}

// take reads the peak RSS unless it was already read.
func (m *rssMark) take() {
	if !m.read {
		m.mb, m.err = peakRSSMB(0)
		m.read = true
	}
}
