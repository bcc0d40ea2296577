package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"clumsy/internal/clumsy"
)

// digestFile is where the committed output digests live, relative to the
// root of the checkout the benchmark runs from.
const digestFile = "perfbench/digests.json"

//go:embed digests.json
var committedDigests []byte

// digestSet is the committed record of every output at one seed: the
// sha256 of each run's deterministic Result fields and of each campaign's
// result.txt, keyed by workload/operation.
type digestSet struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// resultDigest hashes the canonical JSON of every deterministic field of a
// Result (the view the determinism tests compare): what the run measured,
// not the configuration that asked for it and not the error value's
// identity. Maps marshal with sorted keys, so equal contents hash equally.
func resultDigest(r *clumsy.Result) (string, error) {
	fatal := ""
	if r.FatalErr != nil {
		fatal = r.FatalErr.Error()
	}
	b, err := json.Marshal(struct {
		Report           any
		GoldenCycles     float64
		GoldenInstrs     uint64
		GoldenDelay      float64
		GoldenEnergy     any
		GoldenL1DStats   any
		Cycles           float64
		Breakdown        any
		Instrs           uint64
		Delay            float64
		Energy           any
		L1DStats         any
		Recovery         any
		Fatal            string
		SetupDied        bool
		Contained        int
		RestoredPages    uint64
		LevelPackets     []uint64
		Switches         int
		Timeline         []clumsy.FreqEvent
		LinesDisabled    int
		DisabledFrac     float64
		StrikeHist       [8]uint64
		BurstEpisodes    uint64
		PermanentHits    uint64
		IntermittentHits uint64
		SpatialBackoffs  int
		StateRecords     int
		StateDetected    uint64
		StateEvictions   uint64
		StateRebuilds    uint64
		StateScrubs      uint64
		StateDiverged    int
		StateUndetected  int
	}{
		r.Report, r.GoldenCycles, r.GoldenInstrs, r.GoldenDelay, r.GoldenEnergy, r.GoldenL1DStats,
		r.Cycles, r.Breakdown, r.Instrs, r.Delay, r.Energy, r.L1DStats, r.Recovery,
		fatal, r.SetupDied, r.Contained, r.RestoredPages, r.LevelPackets, r.Switches, r.Timeline,
		r.LinesDisabled, r.DisabledFrac, r.StrikeHist, r.BurstEpisodes, r.PermanentHits,
		r.IntermittentHits, r.SpatialBackoffs,
		r.StateRecords, r.StateDetected, r.StateEvictions, r.StateRebuilds, r.StateScrubs,
		r.StateDiverged, r.StateUndetected,
	})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return bytesDigest(b), nil
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker counts the benchmark's operations and their failures. A failure
// is a call that returns an error, a campaign that does not end completed,
// an output whose digest differs from its committed value or from an
// earlier repeat in the same process, or a batch whose exact simulated
// counts drift from the first batch. A simulated fatal error inside a run
// is a result, not a failure.
type checker struct {
	attempted, failed int
	problems          []string

	expected map[string]string // committed digests for this seed; nil at other seeds
	seen     map[string]string // first digest of each key in this process
	counts   map[string]map[string]uint64
}

func newChecker(seed uint64, committed []byte) (*checker, error) {
	c := &checker{seen: map[string]string{}, counts: map[string]map[string]uint64{}}
	var ds digestSet
	if err := json.Unmarshal(committed, &ds); err != nil {
		return nil, fmt.Errorf("read committed digests: %w", err)
	}
	if ds.Seed == seed {
		c.expected = ds.Digests
		if c.expected == nil {
			c.expected = map[string]string{}
		}
	}
	return c, nil
}

// op records one attempted operation and whether it failed.
func (c *checker) op(what string, err error) bool {
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

// digest checks one output digest against the committed value (at the
// committed seed) and against every earlier repeat in this process.
func (c *checker) digest(key, d string) error {
	if c.expected != nil {
		want, ok := c.expected[key]
		switch {
		case !ok:
			return fmt.Errorf("no committed digest for %s", key)
		case want != d:
			return fmt.Errorf("digest %.12s differs from committed %.12s", d, want)
		}
	}
	if prev, ok := c.seen[key]; ok && prev != d {
		return fmt.Errorf("digest %.12s differs from the earlier repeat %.12s", d, prev)
	}
	c.seen[key] = d
	return nil
}

// run records one clumsy.Run call: its error, then its output digest.
func (c *checker) run(key string, r *clumsy.Result, err error) bool {
	if err == nil {
		var d string
		if d, err = resultDigest(r); err == nil {
			err = c.digest(key, d)
		}
	}
	return c.op(key, err)
}

// exactCounts checks that a batch's simulated counts equal those of the
// first batch of the same kind. A speed-only change must leave every
// simulated statistic unchanged, so drift is a failure, not noise.
func (c *checker) exactCounts(kind string, got map[string]uint64) bool {
	first, ok := c.counts[kind]
	if !ok {
		c.counts[kind] = got
		return c.op(kind+" exact counts", nil)
	}
	var drift []string
	for k, v := range got {
		if first[k] != v {
			drift = append(drift, fmt.Sprintf("%s %d->%d", k, first[k], v))
		}
	}
	for k := range first {
		if _, ok := got[k]; !ok {
			drift = append(drift, k+" missing")
		}
	}
	sort.Strings(drift)
	var err error
	if len(drift) > 0 {
		err = fmt.Errorf("simulated counts drifted: %v", drift)
	}
	return c.op(kind+" exact counts", err)
}

// failedFrac is failed operations over attempted ones.
func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// writeDigests records every digest seen in this process as the committed
// set for seed, merged over the existing file.
func (c *checker) writeDigests(seed uint64) error {
	ds := digestSet{Seed: seed, Digests: map[string]string{}}
	if b, err := os.ReadFile(digestFile); err == nil {
		var old digestSet
		if json.Unmarshal(b, &old) == nil && old.Seed == seed {
			for k, v := range old.Digests {
				ds.Digests[k] = v
			}
		}
	}
	for k, v := range c.seen {
		ds.Digests[k] = v
	}
	b, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
