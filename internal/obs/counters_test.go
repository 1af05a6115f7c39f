package obs_test

// A net's counters are read once, by (*topology.Net).Counters, into the
// map a manifest, a stored cell and /metrics carry. These tests pin
// what a reader of that map relies on: the names are canonical, the
// values are the live ones at the read, and the engine, link and RED
// counters are wired to the fields they name.

import (
	"strings"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Every name a net reads is already canonical, and no two of them
// project onto the same Prometheus name ('.' and '-' both become '_').
func TestRegisterCanonicalizesNames(t *testing.T) {
	for _, n := range []*topology.Net{
		topology.New(sim.New(1), topology.Config{Seed: 1}),
		topology.NewNet(sim.New(1), topology.NetConfig{Hops: []topology.Hop{{}, {DropTail: true}, {}}, Seed: 1}),
	} {
		snap := map[string]int64{}
		n.Counters(snap)
		prom := map[string]string{}
		for k := range snap {
			if obs.CanonicalMetricName(k) != k {
				t.Errorf("%q is not canonical: %q", k, obs.CanonicalMetricName(k))
			}
			p := strings.NewReplacer(".", "_", "-", "_").Replace(k)
			if other, ok := prom[p]; ok {
				t.Errorf("%q and %q both project onto %q", k, other, p)
			}
			prom[p] = k
		}
	}
}

// A read takes the values as they stand when it is made, a net without
// a pool reads all-zero pool counters, and a second read into the same
// map adds rather than replaces.
func TestRegistrySnapshot(t *testing.T) {
	eng := sim.New(1)
	n := topology.NewNet(eng, topology.NetConfig{Hops: []topology.Hop{{}}, Seed: 1, DisablePool: true})

	before := map[string]int64{}
	n.Counters(before)
	n.UnknownFlowDrops = 41
	n.UnknownFlowDrops++
	snap := map[string]int64{}
	n.Counters(snap)
	if before["topo.unknown_flow_drops"] != 0 || snap["topo.unknown_flow_drops"] != 42 {
		t.Fatalf("topo.unknown_flow_drops read %d then %d, want 0 then the live 42",
			before["topo.unknown_flow_drops"], snap["topo.unknown_flow_drops"])
	}
	for _, k := range []string{"pool.gets", "pool.puts", "pool.reuses", "pool.guard_trips"} {
		if v, ok := snap[k]; !ok || v != 0 {
			t.Fatalf("pool-less counter %s = %d, %v", k, v, ok)
		}
	}
	// Engine 4, pool 4, unknown-flow drops 1, and per direction of the
	// one hop 4 link and 3 RED counters.
	if len(snap) != 9+2*(4+3) {
		t.Fatalf("snapshot has %d counters, want 23: %v", len(snap), snap)
	}

	n.Counters(snap)
	if snap["topo.unknown_flow_drops"] != 84 {
		t.Fatalf("second read gives %d, want the sum 84", snap["topo.unknown_flow_drops"])
	}
}

// One packet through a dumbbell's forward bottleneck shows on that
// link's counters, its RED queue's drop split is read beside them, and
// the engine counters are the engine's own.
func TestRegistryEngineAndREDLink(t *testing.T) {
	eng := sim.New(1)
	n := topology.New(eng, topology.Config{Seed: 1})
	in := n.PathFwd(1, 0, 1, netem.HandlerFunc(func(p *netem.Packet) {}), 0.001)

	in.Handle(&netem.Packet{Flow: 1, Size: 1000})
	eng.At(1, func() {})
	eng.RunUntil(2)

	snap := map[string]int64{}
	n.Counters(snap)
	if snap["link.lr.arrivals"] != 1 {
		t.Fatalf("link.lr.arrivals = %d, want 1", snap["link.lr.arrivals"])
	}
	if snap["link.lr.departures"] != 1 || snap["link.lr.bytes"] != 1000 {
		t.Fatalf("departures=%d bytes=%d", snap["link.lr.departures"], snap["link.lr.bytes"])
	}
	if snap["link.rl.arrivals"] != 0 || snap["topo.unknown_flow_drops"] != 0 {
		t.Fatalf("the packet went astray: %v", snap)
	}
	for _, k := range []string{"red.lr.early_drops", "red.lr.forced_drops", "red.lr.marks"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("missing %s in %v", k, snap)
		}
	}
	if snap["engine.scheduled"] == 0 || snap["engine.fired"] == 0 {
		t.Fatalf("engine counters not wired: %v", snap)
	}
	if snap["engine.fired"] != int64(eng.Steps()) {
		t.Fatalf("engine.fired %d != Steps %d", snap["engine.fired"], eng.Steps())
	}
}
