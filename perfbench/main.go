// Command perfbench is the repository's benchmark: it runs one named
// workload (suite, sweep or service), checks every output against the
// frozen expected results, and prints every end-to-end metric by name and
// unit. With -trace 1 it instead runs the traced pass of the same workload
// and a ladder of single-layer timings, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every output matched.
//
//	go run . -workload suite -seed 1 -seconds 20 -trace 0
//
// run.py wraps this for a checkout: it builds the binary with a build
// cache inside the checkout and runs it in a scratch directory there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation. The scales are fields so the
// self-test can run every workload at a tiny size.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Work is the scratch directory for trace stores; it is created and
	// removed by the caller.
	Work string
	// Expected holds the frozen outputs; Freeze rewrites it from this
	// run instead of checking against it.
	Expected *expected
	Freeze   bool

	// Scale is the trace scale of suite and sweep; ServiceScale that of
	// service jobs. Parallel is the worker count (-parallel = nproc).
	Scale        float64
	ServiceScale float64
	Parallel     int
	// MinSamples is the latency sample count a run collects at least, so
	// that its p95 has ten samples beyond it.
	MinSamples int
	// LowQPS and HighQPS are the service's open-loop steps.
	LowQPS, HighQPS float64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: suite, sweep or service")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "seconds to measure")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		work    = flag.String("work", "", "scratch directory (default: a temporary directory under .bench_build)")
		expPath = flag.String("expected", "", "expected-results file (default: expected.json in the working directory)")
		freeze  = flag.Bool("freeze", false, "rewrite the expected-results file from this run")
	)
	flag.Parse()
	cfg := config{
		Workload:     *name,
		Seed:         *seed,
		Seconds:      *seconds,
		Trace:        *traced == 1,
		Freeze:       *freeze,
		Scale:        1.0,
		ServiceScale: 0.02,
		Parallel:     runtime.NumCPU(),
		MinSamples:   200,
		LowQPS:       serviceLowQPS,
		HighQPS:      serviceHighQPS,
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	failed, err := run(cfg, *work, *expPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// run resolves paths, executes the workload and prints the result. It
// reports whether any output check failed.
func run(cfg config, work, expPath string) (bool, error) {
	if expPath == "" {
		expPath = "expected.json"
	}
	exp, err := loadExpected(expPath)
	if err != nil {
		if !cfg.Freeze {
			return false, err
		}
		exp = &expected{}
	}
	cfg.Expected = exp
	if work == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return false, err
		}
		dir, err := os.MkdirTemp(".bench_build", "work-")
		if err != nil {
			return false, err
		}
		defer os.RemoveAll(dir)
		work = dir
	}
	if cfg.Work, err = filepath.Abs(work); err != nil {
		return false, err
	}

	out, err := execute(cfg)
	if err != nil {
		return false, err
	}
	if cfg.Freeze {
		if err := cfg.Expected.save(expPath); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: froze %s\n", expPath)
	}
	if err := out.print(os.Stdout, cfg); err != nil {
		return false, err
	}
	return out.failed > 0, nil
}

// execute dispatches one workload in the requested mode.
func execute(cfg config) (*outcome, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	start := time.Now()
	steal := startSteal()
	var (
		out *outcome
		err error
	)
	switch cfg.Workload {
	case "suite":
		out, err = runSuite(cfg)
	case "sweep":
		out, err = runSweep(cfg)
	case "service":
		out, err = runService(cfg)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want suite, sweep or service)", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	out.note("machine: %.1f%% of busy CPU time was stolen by the hypervisor during the run", 100*(1-steal.live()))
	return out, nil
}

// cpuTimes reads the machine-wide steal and busy CPU ticks from the
// first line of /proc/stat (zeros where it is unreadable). Busy ticks are
// all but idle and iowait, steal included: the time the CPUs wanted to
// run. Guest time is already part of user and nice time.
func cpuTimes() (steal, busy uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i != 3 && i != 4 {
			busy += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, busy
}

// fingerprint identifies the machine and toolchain a result came from.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mustJSON renders v for a diagnostic line.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}
