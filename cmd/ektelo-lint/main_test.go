package main

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the real binary and runs it the three ways CI and a
// developer do: the analyzer inventory, a clean package tree as JSON
// (exit 0, no active findings), and an unknown analyzer (exit 2).
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ektelo-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, name := range []string{"nansafe", "lockscope", "mapdeterminism", "guardorder", "wspool"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list lacks analyzer %q:\n%s", name, out)
		}
	}

	// The loader finds the module root above the package directory the
	// test runs in; patterns are relative to that root.
	out, err = exec.Command(bin, "-json", "./internal/wal/...").Output()
	if err != nil {
		t.Fatalf("-json ./internal/wal/...: %v\n%s", err, out)
	}
	var report jsonReport
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, out)
	}
	if report.Version != 1 || report.Module != "repro" || report.Packages == 0 || report.Active != 0 {
		t.Errorf("report %+v, want version 1, module repro, some packages, no active findings", report)
	}

	out, err = exec.Command(bin, "-enable", "nope").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-enable nope: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown analyzer "nope"`) {
		t.Errorf("-enable nope did not name the analyzer:\n%s", out)
	}
}
