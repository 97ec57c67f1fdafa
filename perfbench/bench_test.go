package main

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// TestShortWorkloads runs every workload at smoke-test size, untraced and
// traced, and requires its oracles to pass and every end-to-end metric to
// be measured.
func TestShortWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep, err := run(config{workload: name, seed: 7, measure: 400 * time.Millisecond, trace: trace, setups: 1, short: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(rep.errs) > 0 || rep.failed > 0 {
				t.Fatalf("%s trace=%v: oracle failures %v", name, trace, rep.errs)
			}
			if rep.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted nothing", name, trace)
			}
			for _, m := range endToEnd {
				if rep.e2e[m.name] <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want a measured positive value", name, trace, m.name, rep.e2e[m.name])
				}
			}
			if trace {
				for _, m := range []string{"packet.clone_ns", "state.seal_ns_per_chunk", "mbox.get_us_per_chunk", "netsim.link_ns_per_pkt", "proc.alloc_bytes_per_op"} {
					if rep.layers[m] <= 0 {
						t.Errorf("%s: layer metric %s = %v, want a measured positive value", name, m, rep.layers[m])
					}
				}
				if len(rep.ledger.rows) == 0 || rep.ledger.e2e <= 0 {
					t.Errorf("%s: empty ledger %+v", name, rep.ledger)
				}
			}
		}
	}
}

// natted builds packet seq of flow f as it leaves the NAT with port.
func natted(fs *flowSet, f int, port, seq uint16) *packet.Packet {
	p := pkt(fs.keys[f], packet.FlagACK)
	p.SrcIP, p.SrcPort, p.ID = natExternal, port, seq
	return p
}

func newTestSink(flows int) (*flowSet, *chainSink) {
	fs := cloudFlows(1, flows, 0, 1)
	g := &gate{wake: make(chan struct{}, 1)}
	g.inflight.Store(1 << 20)
	return fs, newChainSink(fs, natExternal, g, time.Now())
}

func wantErr(t *testing.T, errs []string, substr string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e, substr) {
			return
		}
	}
	t.Fatalf("oracle did not report %q; got %v", substr, errs)
}

func TestChainOracleAcceptsCleanRun(t *testing.T) {
	fs, sink := newTestSink(4)
	sent := make([]uint64, 4)
	for seq := uint16(0); seq < 3; seq++ {
		for f := range sent {
			sink.HandlePacket(natted(fs, f, uint16(20000+f), seq))
			sent[f]++
		}
	}
	if errs := sink.finish(sent); len(errs) > 0 {
		t.Fatalf("clean run flagged: %v", errs)
	}
}

// TestChainOracleCatchesLostPacket plants a sink that loses one packet.
func TestChainOracleCatchesLostPacket(t *testing.T) {
	fs, sink := newTestSink(4)
	sent := make([]uint64, 4)
	for seq := uint16(0); seq < 3; seq++ {
		for f := range sent {
			sent[f]++
			if f == 2 && seq == 1 {
				continue // lost on the way to the sink
			}
			sink.HandlePacket(natted(fs, f, uint16(20000+f), seq))
		}
	}
	errs := sink.finish(sent)
	wantErr(t, errs, "flow 2 delivered sequence 2, want 1")
	wantErr(t, errs, "flow 2 delivered 2 packets, generator sent 3")
}

// TestChainOracleCatchesPortCollision plants a NAT that hands two flows
// the same external port.
func TestChainOracleCatchesPortCollision(t *testing.T) {
	fs, sink := newTestSink(2)
	sink.HandlePacket(natted(fs, 0, 20000, 0))
	sink.HandlePacket(natted(fs, 1, 20000, 0))
	wantErr(t, sink.finish([]uint64{1, 1}), "flows 0 and 1 share external port 20000")
}

func TestChainOracleCatchesUntranslatedPacket(t *testing.T) {
	fs, sink := newTestSink(1)
	p := natted(fs, 0, 20000, 0)
	p.SrcIP = netip.MustParseAddr("10.9.9.9")
	sink.HandlePacket(p)
	wantErr(t, sink.finish([]uint64{1}), "want the NAT address")
}

// TestMoveOracleCatchesChunkLeftAtSource runs one real move, then plants a
// chunk at the source by handing it a packet of a moved flow.
func TestMoveOracleCatchesChunkLeftAtSource(t *testing.T) {
	m := newMove(config{seed: 3, short: true}).(*move)
	defer m.close()
	if err := m.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.ctrl.MoveInternal("mon-a", "mon-b", m.match); err != nil {
		t.Fatal(err)
	}
	if !m.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("move did not complete")
	}
	if msg := m.checkMoved("mon-a", "mon-b"); msg != "" {
		t.Fatalf("clean move flagged: %s", msg)
	}
	if err := preload(m.rts[1], []*packet.Packet{pkt(m.flows.keys[m.moved()[0]], packet.FlagACK)}); err != nil {
		t.Fatal(err)
	}
	if msg := m.checkMoved("mon-a", "mon-b"); !strings.Contains(msg, "source holds 1") {
		t.Fatalf("chunk left at the source not caught: %q", msg)
	}
}

func TestMoveOracleCatchesShortDestination(t *testing.T) {
	msg := movedOracle("a", "b", sbi.StatsReply{}, sbi.StatsReply{ReportPerflowChunks: 9}, 10)
	if !strings.Contains(msg, "destination holds 9 chunks (want 10)") {
		t.Fatalf("short destination not caught: %q", msg)
	}
}

// TestXnodeOracleCatchesDisagreeingNode plants a node whose directory
// still names the previous owner.
func TestXnodeOracleCatchesDisagreeingNode(t *testing.T) {
	if msg := ownerOracle("mb-0", "node-b", []string{"node-b", "node-b", "node-b"}); msg != "" {
		t.Fatalf("agreeing nodes flagged: %s", msg)
	}
	msg := ownerOracle("mb-0", "node-b", []string{"node-b", "node-a", "node-b"})
	if !strings.Contains(msg, `node 1's directory names "node-a"`) {
		t.Fatalf("disagreeing node not caught: %q", msg)
	}
}

func TestTailPercentileLeavesTenSamples(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{20000, 0.999}, {9999, 0.99}, {1000, 0.99}, {150, 0.9}, {60, 0.75}, {30, 0.5}} {
		if got := tailFor(c.n); got != c.q {
			t.Errorf("tailFor(%d) = %v, want %v", c.n, got, c.q)
		}
	}
}

// TestMoveContentOracleReadsTheTracePayload checks the IPS content oracle
// against the request it parses from the flow's first payload, and plants
// an analyzer that lost the request's URI.
func TestMoveContentOracleReadsTheTracePayload(t *testing.T) {
	fs := cloudFlows(5, 64, 0, 1)
	f := -1
	for i, h := range fs.http {
		if h {
			f = i
			break
		}
	}
	if f < 0 {
		t.Fatal("no HTTP flow among 64 Cloud flows")
	}
	logic := ips.New()
	rt := mbox.New("ips-t", logic, mbox.Options{})
	defer rt.Close()
	if err := preload(rt, fs.firstRequest(f)); err != nil {
		t.Fatal(err)
	}
	c, ok := logic.Connection(fs.keys[f])
	if !ok || !holdsRequest(c.HTTP, fs.first[f]) {
		t.Fatalf("IPS fed the first request rejected: %+v", c.HTTP)
	}
	c.HTTP.Pending[0].URI += "x"
	if holdsRequest(c.HTTP, fs.first[f]) {
		t.Fatal("analyzer holding another URI accepted")
	}
}

// TestCloudFlowsSplitByPrefix checks the flow sets every workload draws:
// the asked-for count in each half of the campus, in order, with distinct
// destinations, and each flow's preload ending at its first request.
func TestCloudFlowsSplitByPrefix(t *testing.T) {
	fs := cloudFlows(9, 300, 200, 1)
	if len(fs.keys) != 500 {
		t.Fatalf("%d flows, want 500", len(fs.keys))
	}
	for i, k := range fs.keys {
		if half := int(k.SrcIP.As4()[1]); half != map[bool]int{true: 0, false: 1}[i < 300] {
			t.Fatalf("flow %d has source %v in the wrong half", i, k.SrcIP)
		}
		if j, ok := fs.flowOf(pkt(k, 0)); !ok || j != i {
			t.Fatalf("flow %d is not recognised by its destination (got %d)", i, j)
		}
		first := fs.first[i]
		if len(first) != 4 || len(first[3].Payload) == 0 || first[0].Flags != packet.FlagSYN {
			t.Fatalf("flow %d preload is not handshake + first request: %d packets", i, len(first))
		}
	}
}
