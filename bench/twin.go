package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/serve"
)

// serveConfig is cmd/ektelo-serve's flag defaults as a serve.Config, so
// an in-process server (the twin, and the traced run's servers) is
// configured exactly like the child binaries.
func serveConfig(stateDir string) serve.Config {
	return serve.Config{
		BatchWindow: 250 * time.Microsecond,
		MaxBatch:    64,
		Replicates:  3,
		Solver:      serve.SolverLSMR,
		StateDir:    stateDir,
	}
}

// twin is an in-process serve.Dataset built from the same seed and fed
// the same set-up ops as the server under test. Noise streams derive
// from the dataset seed and the order of commits, so at an equal commit
// history the two hold the same measurement log draw for draw and solve
// the same least-squares problem.
//
// Their answers are compared to answerTolerance, not bit for bit. On
// one CPU they are bit-identical; on two, a domain-4096 block solve is
// above the engine's parallel threshold and the order of its partial
// sums follows the scheduler: on the seed commit about one rebuild in
// five of the same log differs from the first in the last bits
// (relative 7e-13). Each check reports how many replies were bit-equal.
type twin struct {
	srv *serve.Server
	ds  *serve.Dataset
}

func newTwin(spec workloadSpec) (*twin, error) {
	srv := serve.New(serveConfig(""))
	ds, err := srv.CreateDatasetWithOptions(datasetName, dataKind, spec.domain, dataScale, datasetSeed, epsTotal, "", 0)
	if err != nil {
		srv.Close()
		return nil, err
	}
	for _, s := range setupStrategies {
		if _, err := ds.Measure(s, setupEps); err != nil {
			srv.Close()
			return nil, err
		}
	}
	// The server's first refresh runs on its first query, over both
	// set-up blocks at once; the twin refreshes at the same point.
	if err := ds.Refresh(); err != nil {
		srv.Close()
		return nil, err
	}
	return &twin{srv: srv, ds: ds}, nil
}

func (t *twin) close() { t.srv.Close() }

func (t *twin) answers(ranges []mat.Range1D) ([]float64, error) {
	res, err := t.ds.Query(ranges)
	return res.Answers, err
}

// answerTolerance bounds ‖got − twin‖₂/‖twin‖₂ for answers taken at an
// equal commit history and refresh schedule. Two correct solves differ
// by 1e-12; an answer from the wrong generation differs by 1e-3.
const answerTolerance = 1e-9

// sameBits reports whether two answer columns are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// matches reports whether got is the twin's answer to tolerance.
func matches(got, want []float64) bool {
	return len(got) == len(want) && len(got) > 0 && relDiff(got, want) <= answerTolerance
}

// verifySamples compares the sampled replies with the twin's answers
// for the same ranges: how many are wrong, and how many of the right
// ones are also bit-equal.
func (t *twin) verifySamples(samples []sampledReply) (checked, wrong, exact int, first string) {
	for _, s := range samples {
		want, err := t.answers(s.ranges)
		checked++
		switch {
		case err != nil || !matches(s.answers, want):
			wrong++
			if first == "" {
				first = fmt.Sprintf("ranges %v: got %v want %v (err %v)", head(s.ranges, 2), head(s.answers, 2), head(want, 2), err)
			}
		case sameBits(s.answers, want):
			exact++
		}
	}
	return checked, wrong, exact, first
}

// relDiff is ‖a−b‖₂ / ‖b‖₂.
func relDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func head[T any](v []T, n int) []T { return v[:min(n, len(v))] }
