package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp says where and on what a set of numbers was measured. It goes into
// every output file; -compare warns when two stamps differ.
type stamp struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newStamp(cfg config) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
	}
}

// hardware reports the fields two stamps must share for their wall-clock
// numbers to be comparable.
func (s stamp) hardware() string {
	return strings.Join([]string{s.GoVersion, s.CPUModel,
		"GOMAXPROCS=" + strconv.Itoa(s.GOMAXPROCS), "NumCPU=" + strconv.Itoa(s.NumCPU)}, ", ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is the checked-out commit, with "+dirty" when the tree has
// changes, or "unknown" outside a git checkout (the driver's copy is one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}
