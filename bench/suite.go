package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// suiteFile is what suite mode writes with -o and what -compare reads: every
// value of every run, so medians and spreads can be taken later.
type suiteFile struct {
	Stamp      stamp           `json:"stamp"`
	Runs       int             `json:"runs_per_workload"`
	TotalWallS float64         `json:"total_wall_s"`
	Workloads  []suiteWorkload `json:"workloads"`
}

// suiteWorkload holds one workload's runs; index i of every list is the run
// on seed Seeds[i].
type suiteWorkload struct {
	Name      string               `json:"name"`
	Seeds     []uint64             `json:"seeds"`
	WallS     []float64            `json:"wall_s"` // whole process, set-up and check included
	Ops       []int                `json:"ops"`
	FailedOps []int                `json:"failed_ops"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	// PerLayer is the traced run on the first seed (with -trace 1), and
	// TraceOverhead its cost: 1 - traced ops_per_s / untraced ops_per_s.
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
	TraceOverhead float64            `json:"trace_overhead_frac,omitempty"`
}

// runChild re-executes this binary for one workload run and returns the
// result line it printed last.
func runChild(w io.Writer, cfg config, workload string, seed uint64, trace bool) (resultLine, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, 0, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return resultLine{}, wall, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return resultLine{}, wall, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return line, wall, nil
}

// runSuite runs every workload in a process of its own (a fresh heap each:
// a workload run after two others in one process measured a third slower),
// runs times on consecutive seeds, then once more traced if asked.
func runSuite(w io.Writer, spec *benchSpec, cfg config, runs int, outPath string) error {
	file := suiteFile{Stamp: newStamp(cfg), Runs: runs}
	start := time.Now()
	for _, wl := range workloads {
		sw := suiteWorkload{Name: wl.name, EndToEnd: map[string][]float64{}}
		for i := 0; i < runs; i++ {
			seed := cfg.seed + uint64(i)
			line, wall, err := runChild(w, cfg, wl.name, seed, false)
			if err != nil {
				return err
			}
			sw.Seeds = append(sw.Seeds, seed)
			sw.WallS = append(sw.WallS, wall.Seconds())
			sw.Ops = append(sw.Ops, line.Attempted-line.Failed)
			sw.FailedOps = append(sw.FailedOps, line.Failed)
			for _, m := range spec.EndToEnd {
				sw.EndToEnd[m.Name] = append(sw.EndToEnd[m.Name], line.Metrics[m.Name].Value)
			}
		}
		if cfg.trace {
			line, _, err := runChild(w, cfg, wl.name, cfg.seed, true)
			if err != nil {
				return err
			}
			sw.PerLayer = map[string]float64{}
			for _, m := range spec.PerLayer {
				sw.PerLayer[m.Name] = line.Metrics[m.Name].Value
			}
			sw.TraceOverhead = 1 - sw.PerLayer["bench.traced_ops_per_s"]/sw.EndToEnd["ops_per_s"][0]
			fmt.Fprintf(w, "  tracing overhead on %s: %.1f%% (traced %.6g op/s, untraced %.6g op/s)\n",
				wl.name, 100*sw.TraceOverhead, sw.PerLayer["bench.traced_ops_per_s"], sw.EndToEnd["ops_per_s"][0])
		}
		file.Workloads = append(file.Workloads, sw)
	}
	file.TotalWallS = time.Since(start).Seconds()
	fmt.Fprintf(w, "suite: %d workloads x %d runs in %.1f s\n", len(workloads), runs, file.TotalWallS)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
