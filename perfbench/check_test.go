package main

import (
	"errors"
	"fmt"
	"testing"

	"clumsy/internal/clumsy"
	"clumsy/internal/metrics"
)

func fatalResult() *clumsy.Result {
	return &clumsy.Result{
		Instrs:   1234,
		FatalErr: clumsy.ErrWatchdog,
		Report:   metrics.Report{GoldenPackets: 10, Processed: 4, Fatal: true},
	}
}

func TestSimulatedFatalIsNotAFailure(t *testing.T) {
	r := fatalResult()
	d, err := resultDigest(r)
	if err != nil {
		t.Fatal(err)
	}
	c := &checker{expected: map[string]string{"w/app/0": d}, seen: map[string]string{}}
	if !c.run("w/app/0", r, nil) {
		t.Errorf("a run that ended on a simulated fatal error was counted as failed: %v", c.problems)
	}
	if c.attempted != 1 || c.failed != 0 || c.failedFrac() != 0 {
		t.Errorf("attempted %d failed %d", c.attempted, c.failed)
	}
}

func TestDigestMismatchIsAFailure(t *testing.T) {
	c := &checker{expected: map[string]string{"w/app/0": "0000"}, seen: map[string]string{}}
	if c.run("w/app/0", fatalResult(), nil) {
		t.Error("a digest differing from the committed one passed")
	}
	if c.run("w/app/1", fatalResult(), nil) {
		t.Error("an output with no committed digest passed")
	}
	c.run("other", nil, errors.New("boom")) // a Run returning an error
	if c.attempted != 3 || c.failed != 3 || c.failedFrac() != 1 {
		t.Errorf("attempted %d failed %d", c.attempted, c.failed)
	}
}

func TestRepeatMustAgreeAtUncommittedSeeds(t *testing.T) {
	c, err := newChecker(99, []byte(`{"seed": 7, "digests": {"k": "x"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.expected != nil {
		t.Fatal("digests committed for seed 7 applied to seed 99")
	}
	r := fatalResult()
	c.run("k", r, nil)
	c.run("k", r, nil)
	r.Instrs++ // a repeat that differs byte for byte
	c.run("k", r, nil)
	if c.attempted != 3 || c.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}

func TestExactCountDriftIsAFailure(t *testing.T) {
	c := &checker{seen: map[string]string{}, counts: map[string]map[string]uint64{}}
	c.exactCounts("w", map[string]uint64{"run.cycles": 10})
	c.exactCounts("w", map[string]uint64{"run.cycles": 10})
	c.exactCounts("w", map[string]uint64{"run.cycles": 11})
	if c.attempted != 3 || c.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}

func TestCommittedDigestsCoverEveryRun(t *testing.T) {
	c, err := newChecker(7, committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		n := len(w.studies)
		for _, sp := range w.studies {
			if key := w.name + "/" + sp.Study; c.expected[key] == "" {
				t.Errorf("no committed digest for %s", key)
			}
		}
		for _, r := range w.runs {
			for k := 0; k < w.subSeeds; k++ {
				n++
				if key := fmt.Sprintf("%s/%s/%d", w.name, r.name, k); c.expected[key] == "" {
					t.Errorf("no committed digest for %s", key)
				}
			}
		}
		if n == 0 {
			t.Errorf("workload %s does nothing", w.name)
		}
	}
}
