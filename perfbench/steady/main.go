// Command steady runs one benchmark workload repeatedly, each run with
// another seed, and prints the median and quartiles of every end-to-end
// metric. With -sets 2 it runs two sets and checks them against the bounds
// in BENCHMARK.json: every spread (the distance between the first and
// third quartile, as a share of the median) within its metric's bound, the
// two medians of each metric apart by no more than the bound in either
// direction, and the same share of failed operations in both sets. Run it
// from the repository root:
//
//	go run ./perfbench/steady -workload chain -runs 10 -sets 2
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	runs := flag.Int("runs", 10, "runs per set")
	sets := flag.Int("sets", 1, "sets of runs (2 checks one against the other)")
	seed := flag.Int64("seed", 1, "seed of the first run; each run takes the next")
	seconds := flag.Int("seconds", 0, "measured seconds per run (0: run_seconds from BENCHMARK.json)")
	flag.Parse()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	ok := true
	var medians []map[string]float64
	var shares []float64
	next := *seed
	for s := 0; s < *sets; s++ {
		values := map[string][]float64{}
		attempted, failed := 0, 0
		for r := 0; r < *runs; r++ {
			res, err := runOnce(sp.Command, *workload, next, *seconds)
			if err != nil {
				fail(fmt.Errorf("seed %d: %w", next, err))
			}
			next++
			if !res.Correct {
				ok = false
				fmt.Printf("seed %d: outputs incorrect\n", next-1)
			}
			attempted += res.Attempted
			failed += res.Failed
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		share := float64(failed) / float64(max(attempted, 1))
		shares = append(shares, share)
		fmt.Printf("set %d: %s, %d runs, failed %d of %d\n", s+1, *workload, *runs, failed, attempted)
		med := map[string]float64{}
		for _, m := range sp.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			med[m.Name] = q2
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict, ok = "OVER BOUND", false
			case spread > m.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("  %-14s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%% (bound %.0f%%) %s\n",
				m.Name, q2, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
		medians = append(medians, med)
	}
	if *sets >= 2 {
		for _, m := range sp.EndToEnd {
			a, b := medians[0][m.Name], medians[1][m.Name]
			moved := (b - a) / a
			verdict := "ok"
			if math.Abs(moved) > m.Bound {
				verdict, ok = "APART BY MORE THAN THE BOUND", false
			}
			fmt.Printf("  %-14s second median vs first: %+6.2f%% (bound ±%.0f%%, %s is better) %s\n", m.Name, 100*moved, 100*m.Bound, m.Better, verdict)
		}
		if shares[0] != shares[1] {
			ok = false
			fmt.Printf("  failed share differs: %g vs %g\n", shares[0], shares[1])
		}
	}
	if !ok {
		fmt.Println("NOT STEADY")
		os.Exit(1)
	}
	fmt.Println("steady")
}

func runOnce(command []string, workload string, seed int64, seconds int) (*result, error) {
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %q", last)
	}
	return &res, nil
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (float64, float64, float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "steady:", err)
	os.Exit(2)
}
