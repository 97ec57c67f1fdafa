// Command perfbench is the repository benchmark. It drives one workload
// through the public functions of netsim, sdn, mbox, the NFs, core, sbi,
// state and packet, checks the workload's outputs against oracles computed
// apart from the program, and prints every metric by name and unit.
//
//	go run ./perfbench --workload chain --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, and the lines
// before it print the workload's per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 records spans, replays each layer and prints the ledger and per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   15,
	}
	if cfg.trace {
		cfg.spanFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}
	rep, err := run(cfg)
	if err != nil {
		fail(err)
	}
	if cfg.trace {
		printLedger(os.Stdout, rep)
	}
	for _, e := range rep.errs {
		fmt.Println("oracle:", e)
	}
	meta, _ := json.Marshal(map[string]any{
		"meta":      machineMeta(),
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"setup_s":   rep.setups,
		"tail":      fmt.Sprintf("p%g, median of %d windows of at least %d samples", rep.tailQ*100, rep.windows, rep.samples),
	})
	fmt.Println(string(meta))
	metrics := rep.e2e
	defs := endToEnd
	if cfg.trace {
		metrics, defs = rep.layers, perLayer
	}
	out := map[string]any{
		"correct":   len(rep.errs) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   renderMetrics(defs, metrics),
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// renderMetrics emits every defined metric; one the run did not produce is
// reported as measured zero (a count the workload never increments).
func renderMetrics(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// machineMeta names the hardware and toolchain a run's figures belong to.
func machineMeta() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
