package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// routerBin is the ektelo-router binary TestMain builds once for every
// test in this package.
var routerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ektelo-router-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	routerBin = filepath.Join(dir, "ektelo-router")
	if out, err := exec.Command("go", "build", "-o", routerBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestTopologyFlagIsRequired: without a usable -topology the router
// must refuse to start, not come up routing to nothing.
func TestTopologyFlagIsRequired(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"replicas":1,"backends":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"missing flag":   nil,
		"missing file":   {"-topology", filepath.Join(t.TempDir(), "absent.json")},
		"empty topology": {"-topology", bad},
	} {
		if out, err := exec.Command(routerBin, args...).CombinedOutput(); err == nil {
			t.Errorf("%s: exited 0:\n%s", name, out)
		}
	}
}

// TestRemovedFlagsAreGone: -probe-interval set a value that is now
// fixed (500ms), so a command line naming it fails at flag parsing.
func TestRemovedFlagsAreGone(t *testing.T) {
	out, err := exec.Command(routerBin, "-probe-interval", "1s").CombinedOutput()
	if err == nil {
		t.Fatalf("-probe-interval exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -probe-interval") {
		t.Fatalf("want the flag package's unknown-flag error, got:\n%s", out)
	}
}

// TestUsageBlockMatchesFlags: the flags the package doc's Usage: block
// names are exactly the flags the binary defines.
func TestUsageBlockMatchesFlags(t *testing.T) {
	out, err := exec.Command(routerBin, "-h").CombinedOutput()
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

// TestFirstRequestAfterHealthzIsRouted starts the real binary in front
// of two live backends and sends a write the moment /healthz answers:
// the listener must not open before the first probe sweep, or that
// write is refused 503 "primary is down" (bench finding 5). It then
// checks SIGTERM exits 0 inside -shutdown-grace.
func TestFirstRequestAfterHealthzIsRouted(t *testing.T) {
	var topo cluster.Topology
	for _, name := range []string{"serve-a", "serve-b"} {
		s := serve.New(serve.Config{})
		// Slow health probes keep the first sweep in flight long enough
		// that a listener opened beside it would lose the race every time.
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				time.Sleep(200 * time.Millisecond)
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		topo.Backends = append(topo.Backends, cluster.Backend{Name: name, Addr: ts.URL})
	}
	data, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(topoPath, data, 0o644); err != nil {
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
	logPath := filepath.Join(t.TempDir(), "router.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	logs := func() string {
		b, _ := os.ReadFile(logPath) // diagnostics only
		return string(b)
	}
	cmd := exec.Command(routerBin, "-addr", addr, "-topology", topoPath, "-shutdown-grace", grace.String())
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
			t.Fatalf("ektelo-router exited during startup: %v\n%s", err, logs())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("ektelo-router never answered /healthz: %v\n%s", err, logs())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// No pause between the first healthy answer and the write.
	resp, err := http.Post(base+"/v1/datasets", "application/json",
		strings.NewReader(`{"name":"first","kind":"piecewise","n":32,"scale":100,"seed":1,"eps_total":5}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create through the router right after /healthz: %d %s\n%s", resp.StatusCode, body, logs())
	}
	if resp.Header.Get(cluster.HeaderServedBy) == "" {
		t.Fatalf("create was not answered by a backend: headers %v", resp.Header)
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
