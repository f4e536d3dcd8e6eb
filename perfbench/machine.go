package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the build and host record attached to every result, so
// numbers from different machines or builds are never compared blind.
type machine struct {
	Commit     string `json:"commit"`      // VCS revision stamped into the binary, when built in a repository
	Tree       string `json:"source_tree"` // sha256 of the module's Go sources and go.mod files
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	Go         string `json:"go"`
}

func (m machine) String() string {
	return fmt.Sprintf("commit=%s tree=%s cpu=%q nproc=%d GOMAXPROCS=%d GOAMD64=%s go=%s",
		m.Commit, m.Tree, m.CPU, m.NProc, m.GOMAXPROCS, m.GOAMD64, m.Go)
}

func machineRecord() machine {
	m := machine{
		Commit:     "unknown",
		Tree:       sourceTreeHash("."),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "v1",
		Go:         runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			case "GOAMD64":
				m.GOAMD64 = s.Value
			}
		}
		if modified && m.Commit != "unknown" {
			m.Commit += "+dirty"
		}
	}
	return m
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

// sourceTreeHash identifies the code under test when no VCS revision is
// available: a sha256 over the path and content of every .go and go.mod
// file below root, skipping build outputs and hidden directories.
func sourceTreeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's resident-memory high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// trajectoryRecord is one line of the append-only trajectory.
type trajectoryRecord struct {
	Time     string            `json:"time"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    int               `json:"trace"`
	Machine  machine           `json:"machine"`
	Result   result            `json:"result"`
	Notes    map[string]string `json:"notes,omitempty"`
}

func appendTrajectory(path, workload string, e env, trace int, m machine, res result, out *outcome) error {
	rec := trajectoryRecord{
		Time:     time.Now().UTC().Format(time.RFC3339),
		Workload: workload,
		Seed:     e.Seed,
		Seconds:  e.Seconds.Seconds(),
		Trace:    trace,
		Machine:  m,
		Result:   res,
	}
	for _, mt := range out.Metrics {
		if mt.Note != "" {
			if rec.Notes == nil {
				rec.Notes = map[string]string{}
			}
			rec.Notes[mt.Name] = mt.Note
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
