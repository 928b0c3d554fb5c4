package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/mat"
)

// conn is one keep-alive connection of the load generator. The whole
// run uses at most `clients` of them, all from this one process.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one request and reads the whole reply. The returned body
// is valid until the next call.
func (c *conn) post(url string, body []byte) (status int, hdr http.Header, data []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// queryReply is the part of serve.QueryResult the benchmark reads.
type queryReply struct {
	Answers         []float64 `json:"answers"`
	BatchClients    int       `json:"batch_clients"`
	SolveIterations int       `json:"solve_iterations"`
}

// sampledReply is a response kept for the bit-for-bit twin comparison.
type sampledReply struct {
	ranges  []mat.Range1D
	answers []float64
}

// queryStats is what one connection's query stream produced.
type queryStats struct {
	latNs     []int64 // successful ops, in issue order
	atNs      []int64 // issue (or due) time of the same ops, from the phase start
	attempted int
	failed    int
	errs      []string // first few failure causes
	batchSum  int      // Σ batch_clients over replies
	iterMax   int      // highest solve_iterations seen
	servedBy  map[string]int
	samples   []sampledReply
}

func newQueryStats() *queryStats { return &queryStats{servedBy: map[string]int{}} }

func (s *queryStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another connection's stats in. Latencies stay grouped by
// connection; only distribution summaries are taken from them.
func (s *queryStats) merge(o *queryStats) {
	s.latNs = append(s.latNs, o.latNs...)
	s.atNs = append(s.atNs, o.atNs...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.batchSum += o.batchSum
	s.iterMax = max(s.iterMax, o.iterMax)
	for k, v := range o.servedBy {
		s.servedBy[k] += v
	}
	s.samples = append(s.samples, o.samples...)
}

// querier issues one connection's queries against a dataset URL.
type querier struct {
	c       *conn
	url     string // .../v1/datasets/<name>/query
	src     *querySource
	client  int
	traced  bool // append ?op=<id> so the traced run's middleware can join spans
	issued  int
	st      *queryStats
	onReply func(op uint64, ranges []mat.Range1D, sent, done time.Time) // traced run only
}

// opID numbers an op uniquely across connections.
func opID(client, i int) uint64 { return uint64(client)<<32 | uint64(i) }

// one issues the next query. Latency is counted from `from` (the send
// time in a closed loop, the due time in an open loop) to the moment
// the reply is decoded; a non-200 status, a transport error or an
// undecodable body is a failure and contributes no latency.
func (q *querier) one(from time.Time, phaseStart time.Time) bool {
	op := q.src.next()
	url := q.url
	id := opID(q.client, q.issued)
	if q.traced {
		url += "?op=" + strconv.FormatUint(id, 10)
	}
	q.issued++
	q.st.attempted++
	sent := time.Now()
	status, hdr, data, err := q.c.post(url, op.body)
	if err != nil {
		q.st.fail("query: %v", err)
		return false
	}
	if status != http.StatusOK {
		q.st.fail("query: status %d: %.120s", status, data)
		return false
	}
	var rep queryReply
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Answers) != len(op.ranges) {
		q.st.fail("query: undecodable reply (%v, %d answers for %d ranges)", err, len(rep.Answers), len(op.ranges))
		return false
	}
	done := time.Now()
	q.st.latNs = append(q.st.latNs, int64(done.Sub(from)))
	q.st.atNs = append(q.st.atNs, int64(from.Sub(phaseStart)))
	q.st.batchSum += rep.BatchClients
	q.st.iterMax = max(q.st.iterMax, rep.SolveIterations)
	if by := hdr.Get("X-Ektelo-Served-By"); by != "" {
		q.st.servedBy[by]++
	}
	if len(q.st.latNs)%checkEvery == 0 {
		q.st.samples = append(q.st.samples, sampledReply{ranges: op.ranges, answers: rep.Answers})
	}
	if q.onReply != nil {
		q.onReply(id, op.ranges, sent, done)
	}
	return true
}

// closedLoop sends the connection's next query as soon as the previous
// reply is decoded, until the deadline.
func (q *querier) closedLoop(phaseStart, until time.Time) {
	for {
		now := time.Now()
		if !now.Before(until) {
			return
		}
		q.one(now, phaseStart)
	}
}

// clock is the time source of the open-loop scheduler (faked in tests).
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// realClock sleeps to within spinWindow of the wake-up time and spins
// the rest: this sandbox's timers fire up to a millisecond late, which
// alone would put the generator's lateness over its limit. At mixed.rw's
// twenty ops a second the spinning costs a few percent of one CPU.
type realClock struct{}

const spinWindow = 2 * time.Millisecond

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(d time.Duration) {
	wake := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(wake) {
		runtime.Gosched()
	}
}

// openStats is what one open-loop connection measured about itself.
type openStats struct {
	// lateNs is, per op, send time minus the later of its due time and
	// the previous reply on the connection: the delay the generator
	// itself added. Waiting behind a slow reply is the program's and is
	// counted in the op's latency instead, which runs from the due time.
	lateNs []int64
}

// openLoop runs count ops on a fixed schedule: op i is due at
// start+offset+i*period whether or not earlier ops have finished, and
// do(i, due) must time the op from due.
func openLoop(clk clock, start time.Time, offset, period time.Duration, count int, do func(i int, due time.Time)) openStats {
	var st openStats
	prevDone := start
	for i := 0; i < count; i++ {
		due := start.Add(offset + time.Duration(i)*period)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		st.lateNs = append(st.lateNs, int64(clk.Now().Sub(ready)))
		do(i, due)
		prevDone = clk.Now()
	}
	return st
}

// opsDue is how many ops of a schedule fall due inside a window.
func opsDue(window, offset, period time.Duration) int {
	if window <= offset {
		return 0
	}
	return int((window-offset-1)/period) + 1
}

// writeStats is what the write stream produced.
type writeStats struct {
	latNs     []int64
	attempted int
	failed    int
	errs      []string
	acked     int // commits the server acknowledged, in order
}

// writer issues `measure` commits on one connection.
type writer struct {
	spec   workloadSpec
	c      *conn
	url    string // .../v1/datasets/<name>/measure
	next   int    // index of the next commit in the write stream
	traced bool
	st     *writeStats
	// onReply, traced run only; index is the commit's place in the write stream.
	onReply func(op uint64, index int, sent, done time.Time)
}

const writerClient = 0xffff // op-id namespace of the write stream

type measureReply struct {
	Rows       int     `json:"rows"`
	Consumed   float64 `json:"consumed"`
	AuditIndex uint64  `json:"audit_index"`
	AuditLeaf  string  `json:"audit_leaf"`
}

func (w *writer) one(from time.Time) bool {
	op := writeAt(w.spec, w.next)
	url := w.url
	id := opID(writerClient, w.next)
	if w.traced {
		url += "?op=" + strconv.FormatUint(id, 10)
	}
	w.next++
	w.st.attempted++
	sent := time.Now()
	status, _, data, err := w.c.post(url, op.body)
	var rep measureReply
	switch {
	case err != nil:
		err = fmt.Errorf("measure: %w", err)
	case status != http.StatusOK:
		err = fmt.Errorf("measure: status %d: %.120s", status, data)
	default:
		if jerr := json.Unmarshal(data, &rep); jerr != nil || rep.Rows == 0 || rep.AuditLeaf == "" {
			err = fmt.Errorf("measure: undecodable reply: %.120s", data)
		}
	}
	if err != nil {
		w.st.failed++
		if len(w.st.errs) < 5 {
			w.st.errs = append(w.st.errs, err.Error())
		}
		return false
	}
	done := time.Now()
	w.st.acked++
	w.st.latNs = append(w.st.latNs, int64(done.Sub(from)))
	if w.onReply != nil {
		w.onReply(id, w.next-1, sent, done)
	}
	return true
}
