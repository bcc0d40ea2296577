package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// abMain compares two commits: it runs the benchmark in each checkout as
// alternating pairs (A first in even pairs, B first in odd ones), records
// each side's result lines under the build directory, and prints one row
// per end-to-end metric of the workload.
func abMain(dirA, dirB, name string, seed uint64, seconds float64, pairs int) int {
	if dirA == "" || dirB == "" || name == "all" {
		fmt.Fprintln(os.Stderr, "perfbench: A/B mode needs --ab-a, --ab-b and one --workload")
		return 2
	}
	a, b, err := runPairs(dirA, dirB, name, seed, seconds, pairs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printComparison(os.Stdout, name, a, b)
	return 0
}

func runPairs(dirA, dirB, name string, seed uint64, seconds float64, pairs int) (a, b []report, err error) {
	args := []string{"perfbench/run.sh", "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		return nil, nil, err
	}
	logA, logB := filepath.Join(buildDir(), "ab-A.jsonl"), filepath.Join(buildDir(), "ab-B.jsonl")
	for i := 0; i < pairs; i++ {
		order := []string{"A", "B"}
		if i%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, side := range order {
			dir, log := dirA, logA
			if side == "B" {
				dir, log = dirB, logB
			}
			rep, raw, err := runOnce(dir, args)
			if err != nil {
				return nil, nil, fmt.Errorf("pair %d side %s: %w", i, side, err)
			}
			if err := appendLine(log, raw); err != nil {
				return nil, nil, err
			}
			if side == "A" {
				a = append(a, rep)
			} else {
				b = append(b, rep)
			}
			fmt.Fprintf(os.Stderr, "pair %d %s done\n", i, side)
		}
	}
	return a, b, nil
}

// runOnce runs the benchmark in one checkout and parses its last line.
func runOnce(dir string, args []string) (report, []byte, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR=.bench_build")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // a run with failed outputs exits 1 after its result line
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return report{}, nil, errors.Join(runErr, fmt.Errorf("parse result line: %w", err))
	}
	return rep, last, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

// printComparison prints, per end-to-end metric, each side's median and
// quartiles, B's wins over the pairs and the verdict of decide.
func printComparison(w *os.File, name string, a, b []report) {
	fmt.Fprintf(w, "A/B on %s: %d A runs, %d B runs (pairs aligned by order)\n", name, len(a), len(b))
	for _, d := range endToEnd {
		var xa, xb []float64
		for _, r := range a {
			xa = append(xa, r.Metrics[d.Name].Value)
		}
		for _, r := range b {
			xb = append(xb, r.Metrics[d.Name].Value)
		}
		v := decide(xa, xb, d.Better == "higher", d.Bound)
		fmt.Fprintf(w, "%-12s %-16s %-6s %s\n", name, d.Name, d.Unit, v)
	}
	failed := 0
	for _, r := range append(append([]report(nil), a...), b...) {
		if !r.Correct {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "%d runs reported incorrect outputs; their figures do not count as evidence\n", failed)
	}
}
