package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the real binary and runs its quickest experiment and
// its usage error: fig5's quick configuration drives every inference
// solver end to end in about a second and ends on the elapsed banner;
// an unknown -exp prints the usage and exits 2.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ektelo-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-exp", "fig5").CombinedOutput()
	if err != nil {
		t.Fatalf("-exp fig5: %v\n%s", err, out)
	}
	for _, want := range []string{"== Figure 5: inference scalability ==", "LS Tree-based", "NNLS Implicit+Iterative", "elapsed)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-exp fig5 output lacks %q:\n%s", want, out)
		}
	}
	out, err = exec.Command(bin, "-exp", "nope").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-exp nope: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown experiment "nope"`) || !strings.Contains(string(out), "-full") {
		t.Errorf("-exp nope did not print the error and the usage:\n%s", out)
	}
}
