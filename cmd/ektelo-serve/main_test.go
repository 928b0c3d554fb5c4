package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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

// TestPersistFlagIsGone: the snapshot backend and the flag that
// selected it were removed together, so an old command line fails at
// flag parsing instead of silently running on the other backend.
func TestPersistFlagIsGone(t *testing.T) {
	out, err := exec.Command(serveBin, "-persist", "snapshot").CombinedOutput()
	if err == nil {
		t.Fatalf("-persist snapshot exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -persist") {
		t.Fatalf("want the flag package's unknown-flag error, got:\n%s", out)
	}
}

// TestLegacyStateDirStartAndShutdown starts the real binary on a state
// directory holding only a snapshot file written by the retired
// snapshot backend (the fixture internal/serve's migration test uses):
// it must come up, answer /healthz and a query with the answers and
// budget that file was frozen with, and exit 0 on SIGTERM inside
// -shutdown-grace.
func TestLegacyStateDirStartAndShutdown(t *testing.T) {
	const fixtures = "../../internal/serve/testdata/"
	stateDir := t.TempDir()
	legacy, err := os.ReadFile(fixtures + "legacy_v3.snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, "mig.snapshot.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var want struct {
		Answers  []float64 `json:"answers"`
		Consumed float64   `json:"consumed"`
	}
	data, err := os.ReadFile(fixtures + "legacy_v3.expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	// Reserve a loopback port, then hand it to the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	const grace = 5 * time.Second
	// The child logs to a file so a failing check can read them while it
	// still runs.
	logPath := filepath.Join(t.TempDir(), "serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	logs := func() string {
		b, _ := os.ReadFile(logPath) // diagnostics only
		return string(b)
	}
	// The fixture's answers were served by the library default solver.
	cmd := exec.Command(serveBin, "-addr", addr, "-state-dir", stateDir, "-solver", "cgls",
		"-shutdown-grace", grace.String(), "-preload", "mig:piecewise:32:5000:3:10")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill() // no-op once the child has exited

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: %d", resp.StatusCode)
			}
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("ektelo-serve exited during startup: %v\n%s", err, logs())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("ektelo-serve never answered /healthz: %v\n%s", err, logs())
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/datasets/mig/query", "application/json",
		strings.NewReader(`{"ranges":[[0,31],[3,17],[11,11]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Answers []float64 `json:"answers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d, decode %v", resp.StatusCode, err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("query answered %d ranges, want %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got.Answers[i] != want.Answers[i] {
			t.Fatalf("answer %d: %v, legacy process served %v", i, got.Answers[i], want.Answers[i])
		}
	}
	resp, err = http.Get(base + "/v1/datasets/mig")
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Consumed float64 `json:"consumed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil || sum.Consumed != want.Consumed {
		t.Fatalf("summary consumed %g (decode %v), legacy process had spent %g", sum.Consumed, err, want.Consumed)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, logs())
		}
	case <-time.After(grace):
		t.Fatalf("still running %v after SIGTERM\n%s", grace, logs())
	}
}
