package main

import (
	"math/rand/v2"
	"strconv"

	"repro/internal/mat"
)

// The op stream is a pure function of (-seed, workload, client): the
// program under test receives only the request bytes generated here.

// stream returns the seeded generator of one independent sub-stream.
func stream(seed, id uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^id))
}

// datasetSeed is the "seed" field of the create request: the protected
// data and the server's noise streams. It is the deployment's, not the
// clients', so it does not follow -seed. (It did at first: the work of
// the data-dependent layers — solver iterations, DAWA's partition, MWEM's
// rounds — then moved by 10 to 40 % from seed to seed, which is a
// different workload per run, not run-to-run noise.)
const datasetSeed = 20180610

func randomRanges(r *rand.Rand, domain, count int) []mat.Range1D {
	out := make([]mat.Range1D, count)
	for i := range out {
		a, b := r.IntN(domain), r.IntN(domain)
		if a > b {
			a, b = b, a
		}
		out[i] = mat.Range1D{Lo: a, Hi: b}
	}
	return out
}

// appendQueryBody renders {"ranges":[[lo,hi],...]} without reflection,
// so the generator's own cost stays small beside the request's.
func appendQueryBody(dst []byte, ranges []mat.Range1D) []byte {
	dst = append(dst, `{"ranges":[`...)
	for i, r := range ranges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(r.Lo), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Hi), 10)
		dst = append(dst, ']')
	}
	return append(dst, `]}`...)
}

// queryOp is one generated query: its ranges (kept for the twin check)
// and its request body.
type queryOp struct {
	ranges []mat.Range1D
	body   []byte
}

// querySource yields one client's query stream.
type querySource struct {
	spec workloadSpec
	rng  *rand.Rand
	pool []queryOp // nil when every request is fresh
}

// hotPool is the workload's fixed pool of distinct requests. It depends
// on the seed only, never on the client, and is what makes
// query.routed's stream byte-identical to query.hot's.
func hotPool(spec workloadSpec, seed uint64) []queryOp {
	r := stream(seed, 0)
	pool := make([]queryOp, poolSize)
	for i := range pool {
		ranges := randomRanges(r, spec.domain, spec.ranges)
		pool[i] = queryOp{ranges: ranges, body: appendQueryBody(nil, ranges)}
	}
	return pool
}

func newQuerySource(spec workloadSpec, seed uint64, client int) *querySource {
	s := &querySource{spec: spec, rng: stream(seed, 1+uint64(client))}
	if spec.pooled {
		s.pool = hotPool(spec, seed)
	}
	return s
}

func (s *querySource) next() queryOp {
	if s.pool != nil {
		return s.pool[s.rng.IntN(len(s.pool))]
	}
	ranges := randomRanges(s.rng, s.spec.domain, s.spec.ranges)
	return queryOp{ranges: ranges, body: appendQueryBody(nil, ranges)}
}

// writeOp is the i-th commit of the write stream.
type writeOp struct {
	strategy string
	body     []byte
}

func writeAt(spec workloadSpec, i int) writeOp {
	s := spec.writes[i%len(spec.writes)]
	return writeOp{strategy: s, body: measureBody(s, writeEps)}
}

func measureBody(strategy string, eps float64) []byte {
	b := append([]byte(`{"strategy":"`), strategy...)
	b = append(b, `","eps":`...)
	b = strconv.AppendFloat(b, eps, 'g', -1, 64)
	return append(b, '}')
}

func createBody(spec workloadSpec) []byte {
	b := append([]byte(`{"name":"`+datasetName+`","kind":"`+dataKind+`","n":`), strconv.Itoa(spec.domain)...)
	b = append(b, `,"scale":`...)
	b = strconv.AppendFloat(b, dataScale, 'g', -1, 64)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, datasetSeed, 10)
	b = append(b, `,"eps_total":`...)
	b = strconv.AppendFloat(b, epsTotal, 'g', -1, 64)
	return append(b, '}')
}
