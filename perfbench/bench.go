package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	// setups is how many times the workload is built; setup_s is the
	// median, and the last build is the one measured.
	setups int
	// spanFile receives the traced run's spans ("" keeps them in memory).
	spanFile string
	// short shrinks every workload to a smoke-test size.
	short bool
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload (README.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_work", "us"},
	{"heap_live_mb", "MB"},
	{"op_p50_us", "us"},
}

// perLayer are the single-layer metrics of a traced run.
var perLayer = []metricDef{
	// The untraced half's tail latency. On a virtual machine it follows
	// the CPU the host steals from a busy guest too closely to be bounded
	// like op_p50_us, so it is reported here, with no bound.
	{"run.op_tail_us", "us"},
	// Migrate's packet latency from the due time, median and p99 over
	// windows of one migration each (0 on the other workloads).
	{"run.pkt_p50_us", "us"},
	{"run.pkt_tail_us", "us"},
	{"packet.clone_ns", "ns"},
	{"packet.sortkeys_ns_per_key", "ns"},
	{"state.seal_ns_per_chunk", "ns"},
	{"state.open_ns_per_chunk", "ns"},
	{"state.seal_allocs_per_chunk", "count"},
	{"state.index_lookup_ns", "ns"},
	{"sbi.frame_roundtrip_us", "us"},
	{"sbi.wire_bytes_per_chunk", "B"},
	{"sbi.frames_per_flush", "frames/flush"},
	{"sbi.tcp_rtt_us", "us"},
	{"mbox.ingress_ns_per_pkt", "ns"},
	{"mbox.get_us_per_chunk", "us"},
	{"mbox.put_us_per_chunk", "us"},
	{"mbox.ring_depth_max", "count"},
	{"mbox.ring_sheds", "count"},
	{"mbox.events_raised", "count"},
	{"mbox.replayed", "count"},
	{"monitor.ns_per_pkt", "ns"},
	{"nat.ns_per_pkt", "ns"},
	{"ips.ns_per_pkt", "ns"},
	{"netsim.switch_ns_per_pkt", "ns"},
	{"netsim.link_ns_per_pkt", "ns"},
	{"netsim.dropped", "count"},
	{"sdn.route_us", "us"},
	{"core.get_stream_ms", "ms"},
	{"core.put_ack_ms", "ms"},
	{"core.events_forwarded", "count"},
	{"core.events_buffered", "count"},
	{"core.quiet_wait_ms", "ms"},
	{"core.register_ms", "ms"},
	{"core.dir_commits", "count"},
	{"core.dir_refusals", "count"},
	{"gen.late_p99_us", "us"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_us", "us"},
	{"trace.overhead_pct", "%"},
}

// workload is one set of inputs the benchmark drives. A value is built by
// its constructor, set up once (timed), measured one or more times, then
// verified and closed.
type workload interface {
	// setup builds the network, controller or nodes, connects and
	// registers the middleboxes and preloads their state; tr, when non-nil,
	// records a span around each registration.
	setup(tr *tracer) error
	// measure runs the workload's operations for d; tr, when non-nil,
	// records a span around each call into a layer.
	measure(d time.Duration, tr *tracer) (phase, error)
	// verify checks the oracles that need the whole run.
	verify() []string
	// counters reads the program's own counters at the end of the run.
	counters() map[string]float64
	// inputs are what the per-layer replays run on.
	inputs() layerInputs
	// ledger lists the rows that make up one operation's cost, from the
	// per-layer metrics l and the untraced end-to-end metrics e.
	ledger(l, e map[string]float64) ledgerSpec
	close()
}

var workloads = map[string]func(cfg config) workload{
	"chain":   newChain,
	"move":    newMove,
	"migrate": newMigrate,
	"xnode":   newXnode,
}

// phase summarises one measured stretch of a workload. A stretch is long
// next to the box's own disturbances (a descheduled vCPU, a GC cycle), so
// latencies are kept per window and run reports medians over the
// windows.
type phase struct {
	ops  int           // operations attempted
	bad  int           // operations whose oracle failed
	errs []string      // the first oracle failures
	work float64       // units of work done (packets, chunks, pulls)
	busy time.Duration // time the work took
	// checkCPU is the process CPU time the benchmark's own oracles took
	// inside the measured stretch; cpu_us_per_work leaves it out.
	checkCPU time.Duration
	// lat holds latencies in µs, one slice per window; op_p50_us and
	// run.op_tail_us are the medians of the windows' percentiles.
	lat [][]float64
	// tailQ is the workload's tail percentile: the highest that leaves
	// at least ten samples beyond it in every window at the workload's
	// usual size, fixed so that a faster program is not charged a higher
	// percentile.
	tailQ float64
	extra map[string]float64
}

// window is the length of one measurement window of the chain.
const window = time.Second

// windows splits samples taken from start on into n whole windows of
// length w; a partial last window is dropped. With n = 0 (a run shorter
// than one window) all samples form one window.
func windows(samples []sample, start, w time.Duration, n int) [][]float64 {
	if n == 0 {
		all := make([]float64, len(samples))
		for i, s := range samples {
			all[i] = s.us
		}
		return [][]float64{all}
	}
	out := make([][]float64, n)
	for _, s := range samples {
		if i := int((s.at - start) / w); i >= 0 && i < n {
			out[i] = append(out[i], s.us)
		}
	}
	return out
}

// latencySummary returns the median over windows of each window's median
// and q-tail, the tail percentile used and the smallest window's samples.
// A window too small to leave ten samples beyond q lowers q to one that
// does (a smoke-test run, or a stalled one).
func latencySummary(wins [][]float64, q float64) (p50, tail, used float64, n int) {
	n = -1
	for _, w := range wins {
		if n < 0 || len(w) < n {
			n = len(w)
		}
	}
	q = min(q, tailFor(n))
	var p50s, tails []float64
	for _, w := range wins {
		p50s = append(p50s, percentile(w, 0.5))
		tails = append(tails, percentile(w, q))
	}
	return median(p50s), median(tails), q, n
}

// report is a finished run.
type report struct {
	attempted, failed int
	errs              []string
	e2e, layers       map[string]float64
	tailQ             float64
	samples, windows  int       // smallest window's latency samples; windows
	setups            []float64 // each set-up's time, in s
	ledger            ledgerSpec
}

func run(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	// A traced run records spans from the first set-up on; nil records
	// nothing.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var w workload
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		w = mk(cfg)
		start := time.Now()
		if err := w.setup(tr); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
	}
	defer w.close()
	rep.e2e["setup_s"] = median(rep.setups)

	untraced := cfg.measure
	if cfg.trace {
		untraced = cfg.measure / 2
	}
	p0 := readProc()
	ph, err := w.measure(untraced, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	p1 := readProc()
	rep.add(ph)
	rep.e2e["op_p50_us"], rep.layers["run.op_tail_us"], rep.tailQ, rep.samples = latencySummary(ph.lat, ph.tailQ)
	rep.windows = len(ph.lat)
	ph.lat = nil
	d := p1.sub(p0)
	ops := math.Max(ph.work, 1)
	rep.e2e["cpu_us_per_work"] = (d.cpu - ph.checkCPU).Seconds() * 1e6 / ops

	if cfg.trace {
		untracedCost := ph.busy.Seconds() / ops
		rep.layers["proc.alloc_bytes_per_op"] = d.allocBytes / ops
		rep.layers["proc.gc_cycles"] = d.gcCycles
		rep.layers["proc.gc_pause_us"] = d.gcPause.Seconds() * 1e6
		for k, v := range ph.extra {
			rep.layers[k] = v
		}
		tp, err := w.measure(cfg.measure-untraced, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", cfg.workload, err)
		}
		rep.add(tp)
		// What only the traced half samples (the ring depth).
		for k, v := range tp.extra {
			if _, ok := rep.layers[k]; !ok {
				rep.layers[k] = v
			}
		}
		tracedCost := tp.busy.Seconds() / math.Max(tp.work, 1)
		if untracedCost > 0 {
			rep.layers["trace.overhead_pct"] = 100 * (tracedCost - untracedCost) / untracedCost
		}
		if cfg.spanFile != "" {
			if err := tr.write(cfg.spanFile); err != nil {
				return nil, err
			}
		}
	}

	if errs := w.verify(); len(errs) > 0 {
		rep.failed++
		rep.errs = append(rep.errs, errs...)
	}
	runtime.GC()
	rep.e2e["heap_live_mb"] = liveHeapBytes() / (1 << 20)

	if cfg.trace {
		for k, v := range w.counters() {
			rep.layers[k] = v
		}
		for k, v := range replayLayers(w.inputs()) {
			rep.layers[k] = v
		}
		rep.ledger = w.ledger(rep.layers, rep.e2e)
	}
	return rep, nil
}

func (r *report) add(ph phase) {
	r.attempted += ph.ops
	r.failed += ph.bad
	r.errs = append(r.errs, ph.errs...)
}

// ---------------------------------------------------------------------------
// Statistics.

// percentile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// tailFor is the highest of p99.9, p99, p90 and p75 that leaves at least
// ten of n samples beyond it.
func tailFor(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// ---------------------------------------------------------------------------
// Process counters.

type procSample struct {
	cpu        time.Duration
	allocBytes float64
	gcCycles   float64
	gcPause    time.Duration
}

func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:        cpuTime(),
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// cpuTime is the process's CPU time so far, from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (a procSample) sub(b procSample) procSample {
	return procSample{a.cpu - b.cpu, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

func liveHeapBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// ---------------------------------------------------------------------------
// Spans.

// span is one call the benchmark made into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op uint64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
