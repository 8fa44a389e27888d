package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// heldOutSeed is kept out of every run made while a change is being
// written; a claimed gain must also hold on it.
const heldOutSeed = 9001

// runMeta records what a run needs to be compared with another: the
// source revision, toolchain, parallelism, CPU and seed.
func runMeta(workload string, rc runConfig) map[string]any {
	sha, dirty := gitState()
	return map[string]any{
		"meta":          true,
		"workload":      workload,
		"seed":          rc.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       rc.seconds.Seconds(),
		"trace":         rc.trace,
		"git_sha":       sha,
		"git_dirty":     dirty,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
	}
}

// gitState returns the revision of the source tree the benchmark runs
// from and whether it has uncommitted changes. The benchmark runs from the
// repository root; outside a git checkout (an exported tree) both are
// "unknown". Git is never asked to search parent directories.
func gitState() (sha, dirty string) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	sha = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return sha, "unknown"
	}
	if len(strings.TrimSpace(string(st))) > 0 {
		return sha, "true"
	}
	return sha, "false"
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// total and the part stolen by the hypervisor for other guests.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other guests since (total0, steal0): a run on a shared host that
// reads slow next to its neighbours usually reads high here.
func stealShare(total0, steal0 uint64) float64 {
	total, steal := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}
