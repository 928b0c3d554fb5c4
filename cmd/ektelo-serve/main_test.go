package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveBin is the ektelo-serve binary TestMain builds once for every
// test in this package.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ektelo-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "ektelo-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRemovedFlagsAreGone: a command line naming a removed flag fails
// at flag parsing instead of running with a setting it did not ask
// for (-persist picked the retired snapshot backend; the rest set
// values that are now fixed: every record synced, 256 cached answers
// per dataset, the batcher, compaction, stream and follower defaults).
func TestRemovedFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"-persist", "snapshot"},
		{"-fsync", "never"},
		{"-fsync-interval", "1s"},
		{"-plan-cache", "-1"},
		{"-window", "1ms"},
		{"-maxbatch", "8"},
		{"-replicates", "0"},
		{"-checkpoint-every", "1"},
		{"-repl-retain", "16"},
		{"-sync-interval", "1s"},
	} {
		t.Run(args[0], func(t *testing.T) {
			out, err := exec.Command(serveBin, args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%v exited 0:\n%s", args, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
				t.Fatalf("want the flag package's unknown-flag error, got:\n%s", out)
			}
		})
	}
}

// TestUsageBlockMatchesFlags: the flags the package doc's Usage: block
// names are exactly the flags the binary defines.
func TestUsageBlockMatchesFlags(t *testing.T) {
	out, err := exec.Command(serveBin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, usage, _ := strings.Cut(string(src), "// Usage:\n//\n")
	usage, _, _ = strings.Cut(usage, "\n//\n")
	defined := flagNames(`(?m)^  -([a-z-]+)`, string(out))
	documented := flagNames(`(?:^|[\s\[])-([a-z][a-z-]*)`, usage)
	if len(defined) == 0 || !slices.Equal(defined, documented) {
		t.Fatalf("-h defines %v, the Usage: block names %v", defined, documented)
	}
}

// flagNames returns the sorted distinct first submatches of pattern in s.
func flagNames(pattern, s string) []string {
	var names []string
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(s, -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// server is one running ektelo-serve child.
type server struct {
	base   string
	cmd    *exec.Cmd
	exited chan error
	logs   func() string
}

// shutdownGrace is the -shutdown-grace every child runs with.
const shutdownGrace = 5 * time.Second

// startServe starts the binary on a loopback port with the given extra
// flags and waits until /healthz answers 200.
func startServe(t *testing.T, args ...string) *server {
	t.Helper()
	// Reserve a loopback port, then hand it to the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	// The child logs to a file so a failing check can read them while it
	// still runs.
	logPath := filepath.Join(t.TempDir(), "serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logFile.Close() })
	srv := &server{
		base:   "http://" + addr,
		cmd:    exec.Command(serveBin, append([]string{"-addr", addr, "-shutdown-grace", shutdownGrace.String()}, args...)...),
		exited: make(chan error, 1),
		logs: func() string {
			b, _ := os.ReadFile(logPath) // diagnostics only
			return string(b)
		},
	}
	srv.cmd.Stdout, srv.cmd.Stderr = logFile, logFile
	if err := srv.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { srv.exited <- srv.cmd.Wait() }()
	t.Cleanup(func() { srv.cmd.Process.Kill() }) // no-op once the child has exited

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: %d", resp.StatusCode)
			}
			return srv
		}
		select {
		case err := <-srv.exited:
			t.Fatalf("ektelo-serve exited during startup: %v\n%s", err, srv.logs())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("ektelo-serve never answered /healthz: %v\n%s", err, srv.logs())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// post sends a JSON body and decodes a 200 response into out.
func (srv *server) post(t *testing.T, path, body string, out any) {
	t.Helper()
	resp, err := http.Post(srv.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, decode %v\n%s", path, resp.StatusCode, err, srv.logs())
	}
}

// state returns the answers to a fixed workload and the consumed budget
// of dataset "ds".
func (srv *server) state(t *testing.T) (answers []float64, consumed float64) {
	t.Helper()
	var got struct {
		Answers []float64 `json:"answers"`
	}
	srv.post(t, "/v1/datasets/ds/query", `{"ranges":[[0,31],[3,17],[11,11]]}`, &got)
	resp, err := http.Get(srv.base + "/v1/datasets/ds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum struct {
		Consumed float64 `json:"consumed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return got.Answers, sum.Consumed
}

// stop sends SIGTERM and requires exit 0 inside -shutdown-grace.
func (srv *server) stop(t *testing.T) {
	t.Helper()
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-srv.exited:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, srv.logs())
		}
	case <-time.After(shutdownGrace):
		t.Fatalf("still running %v after SIGTERM\n%s", shutdownGrace, srv.logs())
	}
}

// TestLegacyStateDirStartAndShutdown starts the real binary on a fresh
// state directory with a preloaded dataset, makes one measurement and
// requires exit 0 on SIGTERM inside -shutdown-grace; restarted on the
// same directory, it must answer the same query with the same consumed
// budget, bit for bit.
func TestLegacyStateDirStartAndShutdown(t *testing.T) {
	stateDir := t.TempDir()
	flags := []string{"-state-dir", stateDir, "-preload", "ds:piecewise:32:5000:3:10"}

	first := startServe(t, flags...)
	var measured struct {
		Consumed float64 `json:"consumed"`
	}
	first.post(t, "/v1/datasets/ds/measure", `{"strategy":"hb","eps":2}`, &measured)
	if measured.Consumed != 2 {
		t.Fatalf("measure: consumed %g, want 2", measured.Consumed)
	}
	answers, consumed := first.state(t)
	first.stop(t)

	second := startServe(t, flags...)
	gotAnswers, gotConsumed := second.state(t)
	second.stop(t)
	if math.Float64bits(gotConsumed) != math.Float64bits(consumed) {
		t.Fatalf("restart consumed %g, before %g", gotConsumed, consumed)
	}
	if len(gotAnswers) != len(answers) {
		t.Fatalf("restart answered %d ranges, before %d", len(gotAnswers), len(answers))
	}
	for i := range answers {
		if math.Float64bits(gotAnswers[i]) != math.Float64bits(answers[i]) {
			t.Fatalf("restart answer %d: %v, before %v", i, gotAnswers[i], answers[i])
		}
	}
}

// TestLegacySnapshotStateDirRefused: a state directory holding the
// state file older versions kept beside the log stops the binary at
// preload with a non-zero exit and a message naming the file, since
// loading the log alone would re-grant the budget the file records.
func TestLegacySnapshotStateDirRefused(t *testing.T) {
	stateDir := t.TempDir()
	legacy := filepath.Join(stateDir, "mig.snapshot.json")
	if err := os.WriteFile(legacy, []byte(`{"version":3,"name":"mig"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, serveBin, "-addr", "127.0.0.1:0", "-state-dir", stateDir,
		"-preload", "mig:piecewise:32:5000:3:10").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || ctx.Err() != nil {
		t.Fatalf("want a non-zero exit at preload, got %v (timeout: %v)\n%s", err, ctx.Err(), out)
	}
	if !strings.Contains(string(out), "preload mig") || !strings.Contains(string(out), legacy) {
		t.Fatalf("exit message does not name the preload and %s:\n%s", legacy, out)
	}
}
