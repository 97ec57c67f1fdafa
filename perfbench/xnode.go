package main

import (
	"bytes"
	"fmt"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/monitor"
	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// The xnode workload: three core.Nodes in one process, joined by peer
// links over loopback TCP. Middleboxes holding resident state are pulled
// from node to node with Node.Pull, each in a fixed rotation.

type xnodeParams struct {
	mbs     int // middleboxes
	flows   int // resident flows per middlebox
	minOps  int // pulls an untraced run measures at least
	timeout time.Duration
}

type xnode struct {
	p     xnodeParams
	nodes []*core.Node
	rts   []*mbox.Runtime
	mons  []*monitor.Monitor
	owner []int // node index each middlebox is registered at
	pkts  []*packet.Packet
	want  []uint64 // preloaded packets per middlebox

	pulls    int
	register []float64
	errs     errList
}

func newXnode(cfg config) workload {
	p := xnodeParams{mbs: 3, flows: 10000, minOps: 150, timeout: 10 * time.Second}
	if cfg.short {
		p.mbs, p.flows, p.minOps = 2, 100, 4
	}
	x := &xnode{p: p}
	fs := cloudFlows(cfg.seed, p.flows, 0, 1)
	for f := range fs.keys {
		x.pkts = append(x.pkts, fs.firstRequest(f)...)
	}
	return x
}

func (x *xnode) setup(tr *tracer) error {
	for i := 0; i < 3; i++ {
		n := core.NewNode(core.NodeOptions{
			Name:    fmt.Sprintf("node-%c", 'a'+i),
			Cluster: core.ClusterOptions{Controller: core.Options{QuietPeriod: quietPeriod}},
		})
		x.nodes = append(x.nodes, n)
		if err := n.Serve(sbi.TCPTransport{}, loopback); err != nil {
			return err
		}
	}
	for _, n := range x.nodes[1:] {
		if err := n.Join(x.nodes[0].Addr()); err != nil {
			return err
		}
	}
	if !waitCond(x.p.timeout, func() bool {
		for _, n := range x.nodes {
			if len(n.Peers()) != 2 || n.KnownNodes() != 3 {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("nodes did not form a full mesh")
	}
	for i := 0; i < x.p.mbs; i++ {
		mon := monitor.New()
		rt := mbox.New(fmt.Sprintf("mb-%d", i), mon, mbox.Options{})
		x.mons = append(x.mons, mon)
		x.rts = append(x.rts, rt)
		if err := preload(rt, x.pkts); err != nil {
			return err
		}
		x.want = append(x.want, mon.TotalPerflowPackets())
		home := i % len(x.nodes)
		d, err := register(rt, x.nodes[home].Addr(), x.nodes[home].Cluster.WaitForMB, tr, uint64(i+1))
		if err != nil {
			return err
		}
		x.register = append(x.register, d.Seconds()*1e3)
		x.owner = append(x.owner, home)
	}
	if uint64(len(x.pkts)) != x.want[0] {
		return fmt.Errorf("preload: monitor counted %d of %d packets", x.want[0], len(x.pkts))
	}
	return nil
}

func (x *xnode) measure(d time.Duration, tr *tracer) (phase, error) {
	ph := phase{extra: map[string]float64{}}
	var lat []float64
	start := time.Now()
	hard := start.Add(3 * d)
	minOps := x.p.minOps
	if tr != nil {
		minOps = 0
	}
	for n := 0; time.Now().Before(start.Add(d)) || (n < minOps && time.Now().Before(hard)); n++ {
		mb := x.pulls % x.p.mbs
		to := (x.owner[mb] + 1) % len(x.nodes)
		name := x.rts[mb].Name()
		x.pulls++
		id := tr.begin("core.Node.Pull", 0, uint64(x.pulls))
		t0 := time.Now()
		err := x.nodes[to].Pull(name)
		took := time.Since(t0)
		tr.end(id)
		if err != nil {
			return ph, fmt.Errorf("pull %s to %s: %w", name, x.nodes[to].Name(), err)
		}
		x.owner[mb] = to
		ph.ops++
		ph.work++
		ph.busy += took
		lat = append(lat, float64(took)/1e3)
		c0 := cpuTime()
		msg := x.check(mb, to)
		ph.checkCPU += cpuTime() - c0
		if msg != "" {
			ph.bad++
			x.errs.addf("%s", msg)
		}
	}
	ph.lat, ph.tailQ = [][]float64{lat}, 0.9 // at least 150 pulls: fifteen beyond p90
	return ph, nil
}

// check is the per-pull oracle: every node's directory names the puller,
// the middlebox ends up registered at exactly one node, and its state
// still holds the preload's counts.
func (x *xnode) check(mb, to int) string {
	name := x.rts[mb].Name()
	owners := make([]string, len(x.nodes))
	for i, n := range x.nodes {
		owners[i], _ = n.Lookup(name)
	}
	if msg := ownerOracle(name, x.nodes[to].Name(), owners); msg != "" {
		return msg
	}
	var at []string
	if !waitCond(x.p.timeout, func() bool {
		at = at[:0]
		for _, n := range x.nodes {
			for _, r := range n.Cluster.Middleboxes() {
				if r == name {
					at = append(at, n.Name())
				}
			}
		}
		return len(at) == 1 && at[0] == x.nodes[to].Name()
	}) {
		return fmt.Sprintf("%s registered at %v after the pull to %s, want exactly %s", name, at, x.nodes[to].Name(), x.nodes[to].Name())
	}
	if got := x.mons[mb].TotalPerflowPackets(); got != x.want[mb] {
		return fmt.Sprintf("%s holds %d packets of state after the pull, preload had %d", name, got, x.want[mb])
	}
	return ""
}

// ownerOracle: after a pull every node's directory names the puller.
func ownerOracle(mb, puller string, owners []string) string {
	for i, o := range owners {
		if o != puller {
			return fmt.Sprintf("%s: node %d's directory names %q as owner, want %q", mb, i, o, puller)
		}
	}
	return ""
}

func (x *xnode) verify() []string {
	return x.errs.get()
}

func (x *xnode) counters() map[string]float64 {
	m := runtimeCounters(x.rts)
	for _, n := range x.nodes {
		for i := 0; i < n.Cluster.Replicas(); i++ {
			addControllerCounters(m, n.Cluster.Replica(i))
		}
		// One registry per node: every node exposes the same unlabelled
		// series names.
		reg := obs.NewRegistry()
		reg.Register(n)
		var buf bytes.Buffer
		if reg.WritePrometheus(&buf) != nil {
			continue
		}
		series, err := obs.ParseSeries(buf.String())
		if err != nil {
			continue
		}
		m["core.dir_commits"] += series["openmb_node_dir_commits_total"]
		m["core.dir_refusals"] += series["openmb_node_dir_refusals_total"]
	}
	m["core.register_ms"] = median(x.register)
	return m
}

func (x *xnode) inputs() layerInputs {
	ls := make([]logicState, len(x.mons))
	for i, mon := range x.mons {
		ls[i] = logicState{kind: "monitor", logic: mon}
	}
	return layerInputs{pkts: x.pkts, logics: ls, match: packet.MatchAll}
}

func (x *xnode) ledger(l, e map[string]float64) ledgerSpec {
	return ledgerSpec{
		op: "pull", unit: "ms",
		rows: []ledgerRow{
			{"peer release call (one loopback round trip)", l["sbi.tcp_rtt_us"] / 1e3, 1},
			{"middlebox redial, hello and quorum-committed registration", l["core.register_ms"], 1},
		},
		e2e:      e["op_p50_us"] / 1e3,
		e2eLabel: "Node.Pull, median",
		notes: []string{
			"remainder: the redirected middlebox waits out its reconnect backoff (mbox default minimum 50 ms plus jitter) before it redials — a configured wait — plus the routing-state import",
		},
	}
}

func (x *xnode) close() {
	for _, rt := range x.rts {
		rt.Close()
	}
	for _, n := range x.nodes {
		n.Close()
	}
}
