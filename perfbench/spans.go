package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"privrange/internal/telemetry"
)

// span is one timed interval: either recorded by the benchmark around a
// call into a layer, or scraped from the program's /traces.
type span struct {
	Trace  string `json:"trace_id"`
	ID     string `json:"span_id"`
	Parent string `json:"parent_id,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	Dur    int64  `json:"duration_ns"`
}

func (s span) end() int64 { return s.Start + s.Dur }

// recorder keeps the benchmark's own spans in memory; they are written
// out once, when the run ends.
type recorder struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

// begin opens a span; the returned func closes it. parent may be "".
func (r *recorder) begin(trace, parent, name string) (id string, end func()) {
	r.mu.Lock()
	r.next++
	id = fmt.Sprintf("b%015x", r.next)
	r.mu.Unlock()
	start := time.Now()
	return id, func() {
		s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), Dur: int64(time.Since(start))}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// time records one root span around f, on a trace of its own.
func (r *recorder) time(name string, f func()) {
	_, end := r.begin("", "", name)
	f()
	end()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans stores spans as JSON at path.
func writeSpans(path string, spans []span) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// nestPhases re-parents spans under the phase that covers them. The
// program emits an operation's phases ("market.buy.answer") as children
// of the operation span, and the engine and WAL spans it calls as
// children of that same operation span: siblings of the phase they ran
// in. A child is moved under the phase whose interval contains its
// start, so the phase's self time excludes it.
func nestPhases(spans []span) []span {
	type key struct{ trace, id string }
	byID := make(map[key]int, len(spans))
	for i, s := range spans {
		byID[key{s.Trace, s.ID}] = i
	}
	phases := make(map[key][]int) // operation span → its phase spans
	for i, s := range spans {
		if p, ok := byID[key{s.Trace, s.Parent}]; ok && strings.HasPrefix(s.Name, spans[p].Name+".") {
			phases[key{s.Trace, s.Parent}] = append(phases[key{s.Trace, s.Parent}], i)
		}
	}
	out := append([]span(nil), spans...)
	for i, s := range spans {
		op := key{s.Trace, s.Parent}
		if p, ok := byID[op]; !ok || strings.HasPrefix(s.Name, spans[p].Name+".") {
			continue
		}
		for _, f := range phases[op] {
			if spans[f].Start <= s.Start && s.Start < spans[f].end() {
				out[i].Parent = spans[f].ID
				break
			}
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once). Children are matched by (trace, parent id).
func selfTimes(spans []span) []int64 {
	type key struct{ trace, id string }
	kids := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			kids[k] = append(kids[k], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range kids[key{s.Trace, s.ID}] {
			lo, hi := spans[c].Start, spans[c].end()
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.end() {
				hi = s.end()
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[i] = s.Dur - covered(ivs)
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			if iv[1] > curHi {
				curHi = iv[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf maps a span name to the module it times.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client.") || strings.HasPrefix(name, "bench."):
		return "client"
	case strings.HasSuffix(name, ".optimize"):
		return "optimize"
	case strings.HasSuffix(name, ".estimate"):
		return "estimator"
	case strings.HasSuffix(name, ".perturb"):
		return "dp"
	case strings.HasPrefix(name, "wal."):
		return "market.wal"
	case strings.Contains(name, "shard"):
		return "shard"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "market."):
		return "market"
	default:
		return "other"
	}
}

// layerSelf sums self time per layer, in microseconds.
func layerSelf(spans []span) map[string]float64 {
	spans = nestPhases(spans)
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[layerOf(s.Name)] += float64(self[i]) / 1e3
	}
	return out
}

// selfLayers are the layers whose self time every traced run reports.
var selfLayers = []string{"client", "market", "market.wal", "core", "optimize", "estimator", "dp", "shard"}

// reportSelf prints each layer's self time per root operation next to
// the client latency. It stays in the human report: a layer that a
// workload's spans never reach would read a constant zero.
func reportSelf(rep *report, spans []span, roots int) {
	by := layerSelf(spans)
	parts := make([]string, 0, len(selfLayers))
	for _, l := range selfLayers {
		v := 0.0
		if roots > 0 {
			v = by[l] / float64(roots)
		}
		parts = append(parts, fmt.Sprintf("%s %.1f", l, v))
	}
	rep.note("self time per traced op (us): %s over %d ops", strings.Join(parts, ", "), roots)
}

// fromWire converts the program's /traces spans.
func fromWire(tw telemetry.TraceWire) []span {
	out := make([]span, 0, len(tw.Spans))
	for _, s := range tw.Spans {
		out = append(out, span{Trace: s.TraceID, ID: s.SpanID, Parent: s.Parent, Name: s.Name, Start: s.Start, Dur: s.DurNS})
	}
	return out
}

// fromBuf converts an in-process span ring (client spans).
func fromBuf(buf *telemetry.SpanBuf) []span {
	recs := buf.SnapshotSpans()
	out := make([]span, 0, len(recs))
	for _, r := range recs {
		out = append(out, span{Trace: hexID(r.TraceID), ID: hexID(r.SpanID), Parent: hexID(r.ParentID), Name: r.Name, Start: r.Start, Dur: r.Dur})
	}
	return out
}

func hexID(v uint64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", v)
}

// snapshot is a scraped /snapshot.
type snapshot struct{ telemetry.Snapshot }

func scrape(ops string) (snapshot, error) {
	var s snapshot
	return s, getJSON("http://"+ops+"/snapshot", &s.Snapshot)
}

func scrapeTraces(ops string) (telemetry.TraceWire, error) {
	var tw telemetry.TraceWire
	return tw, getJSON("http://"+ops+"/traces", &tw)
}

func getJSON(url string, v any) error {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	return nil
}

// counter sums a counter family across labels.
func (s snapshot) counter(name string) float64 {
	total := 0.0
	for _, c := range s.Counters {
		if c.Name == name {
			total += float64(c.Value)
		}
	}
	return total
}

// gauge sums a gauge family across labels.
func (s snapshot) gauge(name string) float64 {
	total := 0.0
	for _, g := range s.Gauges {
		if g.Name == name {
			total += g.Value
		}
	}
	return total
}

// histogram sums count and sum of a histogram family across the series
// whose labels contain match.
func (s snapshot) histogram(name, match string) (count, sum float64) {
	for _, h := range s.Histograms {
		if h.Name == name && strings.Contains(h.Labels, match) {
			count += float64(h.Count)
			sum += h.Sum
		}
	}
	return count, sum
}
