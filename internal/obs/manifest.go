package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Manifest records what a run was and what it produced, in a form two
// runs of the same scenario can be compared byte-for-byte. All fields
// except WallTimeS are deterministic for a given (tool, config, seed):
// encoding/json sorts map keys, struct fields marshal in declaration
// order, and the digest is computed with the two volatile fields
// (WallTimeS, Digest) zeroed — so same seed, same code implies same
// Digest even across machines of different speeds.
type Manifest struct {
	// Schema identifies the manifest format.
	Schema string `json:"schema"`
	// Tool is the producing command or driver ("slowcctrace",
	// "slowccsim", an exp scenario name).
	Tool string `json:"tool"`
	// Seed is the engine seed the run used.
	Seed int64 `json:"seed"`
	// DurationS is the simulated horizon in seconds.
	DurationS float64 `json:"duration_s"`
	// Algos names the congestion-control algorithms, flow order.
	Algos []string `json:"algos,omitempty"`
	// Config holds remaining scenario knobs as printable strings
	// (bottleneck rate, queue discipline, probe interval, ...).
	Config map[string]string `json:"config,omitempty"`
	// Events is the number of engine events the run executed.
	Events uint64 `json:"events"`
	// Counters are the run's core counters (topology.Net.Counters), read
	// at the end of the run.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Histograms holds summaries of every registered histogram (per-hop
	// queue delay, per-flow RTT, drop-burst lengths). Omitted when no
	// histograms were registered, so pre-journey manifests keep their
	// digests.
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
	// Outputs maps each produced artifact (trace TSV, probe TSV, ...)
	// to the sha256 of its contents.
	Outputs map[string]string `json:"outputs,omitempty"`
	// WallTimeS is real elapsed time; excluded from the digest.
	WallTimeS float64 `json:"wall_time_s"`
	// Digest is the sha256 over the manifest JSON with WallTimeS and
	// Digest zeroed. Set by Seal.
	Digest string `json:"digest,omitempty"`
}

// ManifestSchema is the current manifest schema identifier.
const ManifestSchema = "slowcc-manifest/1"

// NewManifest returns a manifest with the schema set and empty maps
// ready to fill.
func NewManifest(tool string, seed int64) *Manifest {
	return &Manifest{
		Schema:   ManifestSchema,
		Tool:     tool,
		Seed:     seed,
		Config:   map[string]string{},
		Outputs:  map[string]string{},
		Counters: map[string]int64{},
	}
}

// DigestBytes returns the hex sha256 of b, the hash Outputs entries use.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// ComputeDigest returns the deterministic digest of m: the sha256 of
// its JSON encoding with the volatile WallTimeS and Digest fields
// zeroed.
func (m *Manifest) ComputeDigest() string {
	stable := *m
	stable.WallTimeS = 0
	stable.Digest = ""
	blob, err := json.Marshal(&stable)
	if err != nil {
		// Manifest fields are all marshalable types; this cannot fail.
		panic(fmt.Sprintf("obs: manifest marshal: %v", err))
	}
	return DigestBytes(blob)
}

// Seal stamps the digest. Call it after all other fields are final.
func (m *Manifest) Seal() { m.Digest = m.ComputeDigest() }

// Encode returns the sealed manifest as indented JSON with a trailing
// newline. It seals first so the digest always matches the content.
func (m *Manifest) Encode() []byte {
	m.Seal()
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("obs: manifest marshal: %v", err))
	}
	return append(blob, '\n')
}

// WriteFile writes the sealed manifest JSON to path.
func (m *Manifest) WriteFile(path string) error {
	return os.WriteFile(path, m.Encode(), 0o644)
}

// ReadManifest parses a manifest file: a document of this schema whose
// recorded digest matches its content. Every writer seals through
// Encode, so a file without a digest is not a manifest.
func ReadManifest(path string) (*Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(blob)
	if err != nil {
		return nil, fmt.Errorf("obs: %s: %v", path, err)
	}
	return m, nil
}

// parseManifest is ReadManifest on the file's bytes.
func parseManifest(blob []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, err
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("schema %q, want %q: not a manifest this build reads", m.Schema, ManifestSchema)
	}
	if m.Digest == "" {
		return nil, errors.New("no digest: not a sealed manifest")
	}
	if got := m.ComputeDigest(); got != m.Digest {
		return nil, fmt.Errorf("digest mismatch (recorded %s, computed %s)", m.Digest, got)
	}
	return &m, nil
}
