package topology

import (
	"slices"
	"strings"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
)

// Counters reads, under the names manifests, stored cells and /metrics
// carry, exactly the fields it names: the engine's scheduler counters,
// each hop link's traffic, each RED queue's drop split, the pool's
// traffic (zero without a pool) and the unknown-flow drops. A second
// read into the same map adds, which is how a sweep cell sums its nets.
func TestNetCountersNames(t *testing.T) {
	link := func(name string) []string {
		return []string{"link." + name + ".arrivals", "link." + name + ".bytes",
			"link." + name + ".departures", "link." + name + ".drops"}
	}
	red := func(name string) []string {
		return []string{"red." + name + ".early_drops", "red." + name + ".forced_drops", "red." + name + ".marks"}
	}
	common := []string{"engine.fired", "engine.rearms", "engine.scheduled", "engine.stops",
		"pool.gets", "pool.guard_trips", "pool.puts", "pool.reuses", "topo.unknown_flow_drops"}
	for _, tc := range []struct {
		name  string
		build func(eng *sim.Engine) *Net
		names [][]string
	}{
		{"dumbbell", func(eng *sim.Engine) *Net { return New(eng, Config{Seed: 1}) },
			[][]string{common, link("lr"), link("rl"), red("lr"), red("rl")}},
		// A tail-drop middle hop has no drop split, and a net without a
		// pool reads zero pool traffic.
		{"3-hop chain", func(eng *sim.Engine) *Net {
			return NewNet(eng, NetConfig{Hops: []Hop{{}, {DropTail: true}, {}}, Seed: 1, DisablePool: true})
		}, [][]string{common, link("fwd0"), link("fwd1"), link("fwd2"), link("rev0"), link("rev1"), link("rev2"),
			red("fwd0"), red("fwd2"), red("rev0"), red("rev2")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			n := tc.build(eng)
			in := lr(n, 1, &arrival{eng: eng})
			for i := 0; i < 400; i++ { // enough back to back to overflow the first queue
				in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000, Seq: int64(i)})
			}
			in.Handle(&netem.Packet{Flow: 99, Kind: netem.Data, Size: 1000}) // routable nowhere
			eng.Run()

			got := map[string]int64{}
			n.Counters(got)
			want := slices.Concat(tc.names...)
			slices.Sort(want)
			var names []string
			for k := range got {
				names = append(names, k)
			}
			slices.Sort(names)
			if !slices.Equal(names, want) {
				t.Fatalf("counter names:\n%s\nwant:\n%s", strings.Join(names, "\n"), strings.Join(want, "\n"))
			}
			for _, k := range names {
				if obs.CanonicalMetricName(k) != k {
					t.Errorf("%s is not canonical", k)
				}
			}

			fields := map[string]int64{
				"engine.scheduled": int64(eng.Scheduled()), "engine.fired": int64(eng.Steps()),
				"engine.rearms": int64(eng.Rearms()), "engine.stops": int64(eng.Stops()),
				"topo.unknown_flow_drops": n.UnknownFlowDrops,
			}
			if p := n.Pool; p != nil {
				fields["pool.gets"], fields["pool.puts"], fields["pool.reuses"], fields["pool.guard_trips"] = p.Gets, p.Puts, p.Reuses, p.GuardTrips
			}
			for i := range n.Fwd {
				for _, l := range []*netem.Link{n.Fwd[i], n.Rev[i]} {
					name := n.names.hop(n.names.rev, i)
					if l == n.Fwd[i] {
						name = n.names.hop(n.names.fwd, i)
					}
					fields["link."+name+".arrivals"], fields["link."+name+".drops"] = l.Stats.Arrivals, l.Stats.Drops
					fields["link."+name+".departures"], fields["link."+name+".bytes"] = l.Stats.Departures, l.Stats.Bytes
					if r, ok := l.Q.(*netem.RED); ok {
						fields["red."+name+".early_drops"], fields["red."+name+".forced_drops"] = r.EarlyDrops, r.ForcedDrops
						fields["red."+name+".marks"] = r.Marks
					}
				}
			}
			for _, k := range names {
				if got[k] != fields[k] {
					t.Errorf("%s = %d, want the field's %d", k, got[k], fields[k])
				}
			}
			if got["link."+n.names.hop(n.names.fwd, 0)+".drops"] == 0 || got["engine.fired"] == 0 || got["topo.unknown_flow_drops"] != 1 {
				t.Fatalf("the traffic did not reach the counters: %v", got)
			}

			n.Counters(got)
			for _, k := range names {
				if got[k] != 2*fields[k] {
					t.Errorf("second read: %s = %d, want %d", k, got[k], 2*fields[k])
				}
			}
		})
	}
}
