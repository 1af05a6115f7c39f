package main

import (
	"fmt"
	"strings"

	"slowcc/internal/exp"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// The output oracle. Every pass hashes what it computed (passOut.check);
// within a process each workload must give one hash on every pass, the
// three ways of running the matrix (cold store, warm store, no store)
// must give the same one, and for the recorded seed and size the hashes
// must be the ones below. A change that moves any of them has changed
// what the simulator computes, which no performance claim may do; a
// change that means to re-records them here, in a PR of its own.

const (
	pinnedEvents = 403989             // the repository's pinned seed-1 two-TCP dumbbell stream
	pinnedDigest = 0x86e6964d4bd964b3 // its StreamDigest
)

// recorded holds the expectations for -seed 1 at the full size.
var recorded = struct {
	check       map[string]string
	mixedEvents uint64
	mixedDigest uint64
}{
	check: map[string]string{
		"engine_mixed": "a4e5e3278fdfe2bd714707dcc5b6701b855601409d50df59e9200e960dd604db",
		"figures":      "d9a7369c64b00478080a994384b5ed97ba98d32cfde9424c0a9b840c09d18fae",
		"matrix":       "96e6023a671ee8da4a6328cee2c10621101ce7f1547fed098fa3beadd496b2ec",
	},
	mixedEvents: 7947746,
	mixedDigest: 0x4bac877f07156134,
}

// checkPinned replays the repository's pinned seed-1 scenario (two
// standard TCP flows, 10 Mbps dumbbell, 30 s) whatever -seed is: it is
// the self-test that the simulator under the benchmark is the one the
// repository's own tests pin.
func checkPinned() error {
	eng := sim.New(1)
	dig := &sim.StreamDigest{}
	eng.SetStreamDigest(dig)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 1})
	f1 := exp.TCPAlgo(0.5).Make(eng, d, 1)
	f2 := exp.TCPAlgo(0.5).Make(eng, d, 2)
	eng.At(0, f1.Sender.Start)
	eng.At(0, f2.Sender.Start)
	eng.RunUntil(30)
	if eng.Steps() != pinnedEvents || dig.Sum() != pinnedDigest {
		return fmt.Errorf("pinned seed-1 dumbbell: %d events, digest %016x; want %d, %016x",
			eng.Steps(), dig.Sum(), uint64(pinnedEvents), uint64(pinnedDigest))
	}
	return nil
}

type oracle struct {
	pinned bool              // seed 1, full size: hold outputs to the recorded values
	seen   map[string]string // oracle key → first hash this process computed
	digest uint64            // engine_mixed: first StreamDigest seen
}

func newOracle(seed int64, size string) *oracle {
	return &oracle{pinned: seed == 1 && size == "full", seen: map[string]string{}}
}

// observeCheck holds one output hash to the first seen under key and,
// when pinned, to the recorded one.
func (o *oracle) observeCheck(key, check string) error {
	if first, ok := o.seen[key]; ok && first != check {
		return fmt.Errorf("%s: output hash %s, earlier in this run %s", key, check, first)
	}
	o.seen[key] = check
	if want := recorded.check[key]; o.pinned && check != want {
		return fmt.Errorf("%s: output hash %s, recorded for seed 1 is %s", key, check, want)
	}
	return nil
}

func (o *oracle) observe(workload string, out passOut) error {
	key := workload
	if strings.HasPrefix(workload, "matrix_") {
		key = "matrix" // cold, warm and no-store must render one TSV
	}
	if err := o.observeCheck(key, out.check); err != nil {
		return err
	}
	if workload != "engine_mixed" || out.digest == 0 {
		return nil
	}
	if o.digest != 0 && o.digest != out.digest {
		return fmt.Errorf("engine_mixed: stream digest %016x, earlier in this run %016x", out.digest, o.digest)
	}
	o.digest = out.digest
	if o.pinned && (out.events != recorded.mixedEvents || out.digest != recorded.mixedDigest) {
		return fmt.Errorf("engine_mixed: %d events, digest %016x; recorded for seed 1 are %d, %016x",
			out.events, out.digest, recorded.mixedEvents, recorded.mixedDigest)
	}
	return nil
}
