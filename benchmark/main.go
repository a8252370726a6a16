// Command benchmark is embsp's benchmark: seven named workloads, each run
// closed-loop in a process of its own, every result verified bitwise against
// the in-memory reference, the end-to-end metrics a user sees and a per-layer
// table for every module. README.md in this directory has the tables and the
// harness rules; ../BENCHMARK.json is rendered from metrics.go.
//
//	go run -C benchmark . [-seed N] [-only name] [-quick] [-sets k] [-dir path] [-out file]
//	go run -C benchmark . -workload name -seed N -seconds S -trace 0|1
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"embsp"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fl.String("workload", "", "run this one workload in this process and print its result object as the last line")
		seed         = fl.Uint64("seed", 1, "the only source of randomness: workload inputs, Options.Seed and fault seeds")
		seconds      = fl.Float64("seconds", -1, "how long one run measures (default: BENCHMARK.json's run_seconds, or the minimum iterations with -quick)")
		trace        = fl.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of traced iterations and layer drives")
		quick        = fl.Bool("quick", false, "small sizes and the minimum number of iterations")
		only         = fl.String("only", "", "comma-separated workloads to run (default all)")
		sets         = fl.Int("sets", 1, "run the whole benchmark this many times and compare the sets")
		dir          = fl.String("dir", "out", "directory for state directories, spans and the report")
		out          = fl.String("out", "", "where to write the report (default <dir>/benchmark.json)")
		compare      = fl.Bool("compare", false, "compare two saved reports: -compare a.json b.json")
		printMan     = fl.Bool("manifest", false, "print BENCHMARK.json as rendered from the metric tables")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 0 {
		*seconds = runSeconds
		if *quick {
			*seconds = 0
		}
	}
	switch {
	case *printMan:
		os.Stdout.Write(manifest())
		return 0
	case *compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1))
	case *workloadName != "":
		return runOne(*workloadName, *seed, *seconds, *trace == 1, *quick, *dir)
	}
	if *out == "" {
		*out = filepath.Join(*dir, "benchmark.json")
	}
	return runAll(*seed, *seconds, *quick, *only, *sets, *dir, *out)
}

// runOne is one run on one workload in this process, so that cpu_user_s and
// peak_rss_mb are the workload's own. It is what the full benchmark execs
// once per workload and trace mode.
func runOne(name string, seed uint64, seconds float64, trace, quick bool, dir string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	e, err := newEnv(dir, seed, seconds, quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.close() // state directories go on every path, a failed verification included
	if trace {
		e.rec = newRecorder(name)
	}
	e2e, layers, err := runWorkload(w, e, trace)
	if werr := e.rec.write(filepath.Join(dir, "spans-"+name+".json")); werr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: spans:", werr)
	}
	for _, f := range e.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs, vals := endToEnd, e2e
	if trace {
		defs, vals = perLayer, layers
		for k, v := range runDrives(e) {
			vals[k] = v
		}
		vals["harness.fail_frac"] = float64(e.failed) / float64(e.attempted)
	}
	res := newResult(e, defs, vals)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, name, defs, res, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// hostInfo is the report's header: what the numbers were measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Kernel     string `json:"kernel"`
	FS         string `json:"fs"`
	// Notes state what was degraded instead of hiding it.
	Notes []string `json:"notes,omitempty"`
}

func host(dir string) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Kernel: kernelRelease(), FS: fsType(dir),
	}
	if h.FS == "tmpfs" {
		h.Notes = append(h.Notes, "-dir is on tmpfs: disk.*.sync_ms, disk.phys_fsync_s and journal.append_ms are memory's, not a device's")
	}
	if !embsp.MmapSupported() {
		h.Notes = append(h.Notes, "mmap unsupported on this platform: the disk.mapped.* drive is skipped and reads 0")
	}
	return h
}

// workloadReport is one workload's two runs, merged.
type workloadReport struct {
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
}

// report is what -out holds and -compare reads.
type report struct {
	Host    hostInfo                    `json:"host"`
	Seed    uint64                      `json:"seed"`
	Seconds float64                     `json:"seconds"`
	Quick   bool                        `json:"quick"`
	Sets    []map[string]workloadReport `json:"sets"`
}

// runAll runs every selected workload, each in a process of its own, once
// untraced and once traced, and prints and saves every metric.
func runAll(seed uint64, seconds float64, quick bool, only string, sets int, dir, out string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var selected []string
	for _, w := range workloads {
		if only == "" || slices.Contains(strings.Split(only, ","), w.name) {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -only %q names no workload\n", only)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep := report{Host: host(dir), Seed: seed, Seconds: seconds, Quick: quick}
	hdr, _ := json.Marshal(rep.Host)
	fmt.Printf("embsp benchmark: seed %d, %g s per run, host %s\n", seed, seconds, hdr)
	code := 0
	for s := 0; s < sets; s++ {
		set := make(map[string]workloadReport)
		for _, name := range selected {
			wr := workloadReport{}
			for _, trace := range []int{0, 1} {
				args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-dir", dir}
				if quick {
					args = append(args, "-quick")
				}
				cmd := exec.CommandContext(ctx, self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				res, perr := lastLineResult(stdout)
				if perr != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d: %v\n", name, trace, errors.Join(err, perr))
					return 1
				}
				if err != nil || !res.Correct {
					code = 1 // verification failed; keep going so every workload is reported
				}
				if trace == 0 {
					wr.EndToEnd = res.Metrics
				} else {
					wr.PerLayer = res.Metrics
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
			}
			set[name] = wr
			fmt.Printf("set %d: %s done, %d verified operations, %d failed\n", s+1, name, wr.Attempted, wr.Failed)
		}
		rep.Sets = append(rep.Sets, set)
		printSet(s+1, selected, set)
	}
	for s := 1; s < len(rep.Sets); s++ {
		fmt.Printf("\nset 1 against set %d:\n", s+1)
		if !compareSets(rep.Sets[:1], rep.Sets[s:s+1]) {
			code = 1
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o666)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("report written to %s, harness spans to %s\n", out, filepath.Join(dir, "spans-<workload>.json"))
	return code
}

// lastLineResult parses the result object a workload run printed last.
func lastLineResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result object on the last line: %w", err)
	}
	return &res, nil
}

// printSet prints every metric by name with its unit, one column per
// workload: the end-to-end table first, then the per-layer table.
func printSet(n int, names []string, set map[string]workloadReport) {
	table := func(title string, defs []metricDef, of func(workloadReport) map[string]metric) {
		fmt.Printf("\nset %d, %s\n%-42s %-6s", n, title, "metric", "unit")
		for _, name := range names {
			fmt.Printf(" %13s", name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-42s %-6s", d.Name, d.Unit)
			for _, name := range names {
				fmt.Printf(" %13.6g", of(set[name])[d.Name].Value)
			}
			fmt.Println()
		}
	}
	table("end to end (untraced runs)", endToEnd, func(w workloadReport) map[string]metric { return w.EndToEnd })
	table("per layer (traced runs and layer drives)", perLayer, func(w workloadReport) map[string]metric { return w.PerLayer })
}
