package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// tinySizes shrinks every phase of a run so each workload finishes in
// seconds. The reference campaign is one cycle instead of five, so the
// recorded paper-summary reference values do not apply.
func tinySizes() sizes {
	return sizes{RefCycles: 1, Replays: 1, SetupRepeats: 1, SimRuns: 1, LadderExchanges: 4, MissRate: 8, ReplayRate: 20}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (e2e, perLayer []benchMetric) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestWorkloadsPrintEveryMetric runs each workload at tiny size, untraced
// and traced, and checks the result line carries exactly the metrics
// BENCHMARK.json names, with their units, and that each is also printed
// by name with its unit for people.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	e2e, perLayer := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--history", "", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr, time.Now(), tinySizes()); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v\n%s", res, stdout.String())
				}
				want := e2e
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +=\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
					if !line.MatchString(stdout.String()) {
						t.Errorf("metric %s not printed with its unit", m.Name)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--history", ""}, &stdout, &stderr, time.Now(), tinySizes()); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatal("printed a result for an unknown workload")
	}
}

// servedCampaign streams a small real campaign and frames it the way the
// daemon serves it.
func servedCampaign(t *testing.T, req serve.Request) []byte {
	t.Helper()
	c, err := streamCampaign(nil, 0, streamOptionsFor(req, 1), req.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, l := range c.Lines {
		b.Write(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestFlippedReplayByteFails(t *testing.T) {
	want := servedCampaign(t, serve.Request{Scenario: "alice-bob", Runs: 2, Packets: 2, Seed: 5})
	ok := reply{Status: http.StatusOK, Body: want}
	if err := judgeReplay(ok, want); err != nil {
		t.Fatalf("identical replay judged failed: %v", err)
	}
	for _, at := range []int{0, len(want) / 2, len(want) - 2} {
		flipped := append([]byte(nil), want...)
		flipped[at] ^= 0x01
		if err := judgeReplay(reply{Status: http.StatusOK, Body: flipped}, want); err == nil {
			t.Errorf("replay with byte %d flipped judged correct", at)
		}
	}
	if err := judgeReplay(reply{Status: http.StatusServiceUnavailable}, want); !errors.Is(err, errRejected) {
		t.Errorf("503 judged %v, want a rejection", err)
	}
	if err := judgeReplay(reply{Status: http.StatusOK, Body: want[:len(want)/2]}, want); err == nil {
		t.Error("short replay judged correct")
	}
}

func TestReorderedRowFails(t *testing.T) {
	req := serve.Request{Scenario: "alice-bob", Runs: 2, Packets: 2, Seed: 9}
	body := servedCampaign(t, req)
	if err := judgeMiss(reply{Status: http.StatusOK, Body: body, FirstLine: time.Now()}, req); err != nil {
		t.Fatalf("in-order campaign judged failed: %v", err)
	}
	lines := splitLines(body)
	if bad, why := checkStream(lines, 2, req.Seed, "msk"); bad != 0 {
		t.Fatalf("in-order rows failed: %v", why)
	}
	lines[0], lines[1] = lines[1], lines[0]
	if bad, _ := checkStream(lines, 2, req.Seed, "msk"); bad == 0 {
		t.Error("reordered rows counted as correct")
	}
	reordered := bytes.Join(lines, []byte("\n"))
	if err := judgeMiss(reply{Status: http.StatusOK, Body: append(reordered, '\n'), FirstLine: time.Now()}, req); err == nil {
		t.Error("reordered campaign judged correct")
	}
	if bad, _ := checkStream(splitLines(body)[:2], 2, req.Seed, "msk"); bad != 2 {
		t.Error("stream without its summary record not failed entirely")
	}
}

// TestOpenLoopReportsLateness stalls the server on the first request:
// the next calls of the stream are due during the stall, so they go out
// late, and the loop reports by how much.
func TestOpenLoopReportsLateness(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}\n"))
	}))
	defer ts.Close()
	calls := []call{{Due: 0}, {Due: 20 * time.Millisecond}, {Due: 40 * time.Millisecond}}
	replies := openLoop(context.Background(), ts.URL, time.Now(), [][]call{calls}, nil)
	if len(replies) != 1 || len(replies[0]) != 3 {
		t.Fatalf("replies %v", replies)
	}
	for i, rp := range replies[0][1:] {
		if lag := rp.lateness(); lag < stall/2 {
			t.Errorf("call %d sent %v late during a %v stall", i+1, lag, stall)
		}
		if rp.Done.Sub(rp.Due) < stall/2 {
			t.Errorf("call %d latency from due time %v hides the stall", i+1, rp.Done.Sub(rp.Due))
		}
	}
}

// TestMissBurstsQueue submits one burst of fresh campaigns to a daemon
// with one runner: every later campaign of the burst waits in the queue
// for the jobs ahead of it, and the followed streams show that wait.
func TestMissBurstsQueue(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, Runners: 1, QueueDepth: 8, CacheBytes: 8 << 20, WriteTimeout: 5 * time.Second})
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	var calls []call
	for i := range missBurst {
		body, _ := json.Marshal(missRequest([]int{0}, 7, i))
		calls = append(calls, call{Path: "/v1/campaigns", Body: body, Tag: i})
	}
	submits := make(chan reply, len(calls))
	openLoop(context.Background(), ts.URL, time.Now(), [][]call{calls}, func(rp reply) { submits <- rp })
	close(submits)
	misses := followMisses(context.Background(), ts.URL, submits)
	if len(misses) != missBurst {
		t.Fatalf("%d misses followed, want %d", len(misses), missBurst)
	}
	for i, rp := range misses {
		if err := judgeMiss(rp, missRequest([]int{0}, 7, i)); err != nil {
			t.Fatalf("miss %d: %v", i, err)
		}
		if i == 0 {
			continue
		}
		if !rp.FirstLine.After(misses[i-1].Done) {
			t.Errorf("miss %d: first row before the job ahead of it finished", i)
		}
		if wait, ahead := rp.Start.Sub(rp.Due), misses[i-1].Done.Sub(rp.Due); wait < ahead {
			t.Errorf("miss %d: queue wait %v, but the job ahead ran until %v after the due time", i, wait, ahead)
		}
	}
}

func TestTail(t *testing.T) {
	small := []float64{5, 1, 4, 2, 3}
	if v, name := tail(small); v != 5 || !strings.HasPrefix(name, "max") {
		t.Errorf("tail of 5 samples = %v %s, want the maximum", v, name)
	}
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	v, name := tail(xs)
	if v != 30 || name != "p75.0(n=40)" {
		t.Errorf("tail of 1..40 = %v %s, want 30 with ten samples beyond", v, name)
	}
}

func TestKindMedian(t *testing.T) {
	xs := []float64{10, 100, 12, 300, 11, 200}
	if v := kindMedian(xs, nil); v != 56 {
		t.Errorf("kindMedian without kinds = %v, want the plain median 56", v)
	}
	// Kind 0 has median 11, kind 1 median 200: each kind weighs the same.
	if v := kindMedian(xs, []int{0, 1, 0, 1, 0, 1}); v != 105.5 {
		t.Errorf("kindMedian of two kinds = %v, want 105.5", v)
	}
}

// TestCPUShares profiles a math-heavy loop and checks the attribution
// finds it in the math group.
func TestCPUShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sum += math.Exp(math.Sin(float64(i)))
		}
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if shares["math"] < 0.2 {
		t.Errorf("math share %.3f of a math loop (sum %g)", shares["math"], sum)
	}
	if len(shares) != len(cpuGroups) {
		t.Errorf("%d groups, want %d", len(shares), len(cpuGroups))
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/core.(*Decoder).findHead": "core",
		"math.archExp":                              "math",
		"math/cmplx.Exp":                            "math",
		"runtime.mallocgc":                          "runtime",
		"encoding/json.(*encodeState).string":       "encoding_json",
		"net/http.(*conn).serve":                    "net_http",
		"repro/internal/stats/sketch.(*Sketch).Add": "stats",
		"syscall.Syscall":                           "",
	} {
		if got := cpuGroup(funcPackage(name)); got != want {
			t.Errorf("%s → %q, want %q", name, got, want)
		}
	}
}
