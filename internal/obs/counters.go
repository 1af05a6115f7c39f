package obs

import (
	"strings"
	"sync"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// Counter is one named monotonic counter. Read returns its current
// value; the closure is bound once at registration, so reading a
// snapshot allocates nothing beyond the snapshot map itself.
type Counter struct {
	Name string
	Read func() int64
}

// Registry collects named monotonic counters from the simulator core.
// The components themselves keep maintaining plain integer fields on
// their hot paths (LinkStats, RED drop splits, pool traffic, the
// engine's scheduler counters) exactly as before; the registry only
// holds read closures over them, so registering costs a few small
// allocations at setup time and nothing per event. It holds counters
// only: a histogram stays with the recorder that fills it (a journey
// recorder hands its summaries to a manifest itself).
//
// Counter names are dot-separated, component first:
//
//	engine.scheduled  engine.fired     engine.rearms      engine.stops
//	link.<name>.arrivals  link.<name>.drops  link.<name>.departures  link.<name>.bytes
//	red.<name>.early_drops  red.<name>.forced_drops  red.<name>.marks
//	pool.gets  pool.puts  pool.reuses  pool.guard_trips
//
// Names are canonicalized at registration time (CanonicalMetricName),
// so every registered name has a deterministic, collision-free
// projection onto a Prometheus-legal name: the export layer maps '.'
// and '-' to '_' and prefixes the namespace. Registration and snapshot
// methods are safe for concurrent use; snapshot iteration order is the
// sorted name order regardless of registration interleaving.
type Registry struct {
	mu       sync.Mutex
	counters []Counter
}

// Register adds one counter. Later registrations with the same name are
// kept too (Snapshot takes the last), but callers should treat names as
// unique.
func (g *Registry) Register(name string, read func() int64) {
	if read == nil {
		return
	}
	name = CanonicalMetricName(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.counters = append(g.counters, Counter{Name: name, Read: read})
}

// CanonicalMetricName maps an arbitrary metric name onto the registry's
// legal charset: letters, digits, and '_', ':', '.', '-'. Dots separate
// components and dashes appear inside component names (access-link hop
// names); both are preserved here, because manifests and TSV artifacts
// carry these names verbatim, and both map to '_' when the export layer
// projects a name into Prometheus form. Every other rune becomes '_',
// so registration — not exposition — is where a name's projection is
// fixed; an empty name becomes "unnamed".
func CanonicalMetricName(name string) string {
	if name == "" {
		return "unnamed"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == ':', r == '.', r == '-':
			return r
		}
		return '_'
	}, name)
}

// AddEngine registers the scheduler counters of e.
func (g *Registry) AddEngine(e *sim.Engine) {
	g.Register("engine.scheduled", func() int64 { return int64(e.Scheduled()) })
	g.Register("engine.fired", func() int64 { return int64(e.Steps()) })
	g.Register("engine.rearms", func() int64 { return int64(e.Rearms()) })
	g.Register("engine.stops", func() int64 { return int64(e.Stops()) })
}

// AddLink registers the traffic counters of l under link.<name>.*, and,
// when the link's queue is RED, its drop-split counters under
// red.<name>.*.
func (g *Registry) AddLink(name string, l *netem.Link) {
	g.Register("link."+name+".arrivals", func() int64 { return l.Stats.Arrivals })
	g.Register("link."+name+".drops", func() int64 { return l.Stats.Drops })
	g.Register("link."+name+".departures", func() int64 { return l.Stats.Departures })
	g.Register("link."+name+".bytes", func() int64 { return l.Stats.Bytes })
	if r, ok := l.Q.(*netem.RED); ok {
		g.AddRED(name, r)
	}
}

// AddRED registers the RED drop-split counters of r under red.<name>.*.
func (g *Registry) AddRED(name string, r *netem.RED) {
	g.Register("red."+name+".early_drops", func() int64 { return r.EarlyDrops })
	g.Register("red."+name+".forced_drops", func() int64 { return r.ForcedDrops })
	g.Register("red."+name+".marks", func() int64 { return r.Marks })
}

// AddPool registers the packet-pool traffic counters (nil pool: all
// zero, matching the pool's own nil semantics).
func (g *Registry) AddPool(pp *netem.PacketPool) {
	g.Register("pool.gets", func() int64 {
		if pp == nil {
			return 0
		}
		return pp.Gets
	})
	g.Register("pool.puts", func() int64 {
		if pp == nil {
			return 0
		}
		return pp.Puts
	})
	g.Register("pool.reuses", func() int64 {
		if pp == nil {
			return 0
		}
		return pp.Reuses
	})
	g.Register("pool.guard_trips", func() int64 {
		if pp == nil {
			return 0
		}
		return pp.GuardTrips
	})
}

// Snapshot reads every counter into a name->value map. Duplicate names
// keep the last registration.
func (g *Registry) Snapshot() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int64, len(g.counters))
	for _, c := range g.counters {
		out[c.Name] = c.Read()
	}
	return out
}
