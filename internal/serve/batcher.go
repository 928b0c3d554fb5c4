package serve

import (
	"fmt"
	"log"
	"time"

	"repro/internal/mat"
)

// batcher coalesces concurrent clients' query workloads on one dataset
// into panel batches. The first queued request opens a window
// (Config.BatchWindow); every request arriving inside it — up to
// Config.MaxBatch — shares one MatMat panel pass. The window closes
// only when it expires or the batch is full, so a lone request always
// waits the full window. Cache hits never enter the batcher:
// Dataset.Query answers them before submit, so only misses pay it.
type batcher struct {
	d    *Dataset
	in   chan *queryReq
	quit chan struct{}
	done chan struct{}
}

type queryReq struct {
	ranges []mat.Range1D
	resp   chan queryResp
}

type queryResp struct {
	result QueryResult
	err    error
}

func newBatcher(d *Dataset) *batcher {
	b := &batcher{
		d:    d,
		in:   make(chan *queryReq, 256),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit enqueues a workload and blocks for its batch's answer.
func (b *batcher) submit(ranges []mat.Range1D) (QueryResult, error) {
	req := &queryReq{ranges: ranges, resp: make(chan queryResp, 1)}
	select {
	case b.in <- req:
	case <-b.quit:
		return QueryResult{}, ErrBatcherStopped
	}
	select {
	case r := <-req.resp:
		return r.result, r.err
	case <-b.done:
		// The loop exited while we were queued; the final drain may still
		// have answered us (resp is buffered).
		select {
		case r := <-req.resp:
			return r.result, r.err
		default:
			return QueryResult{}, ErrBatcherStopped
		}
	}
}

// stopped reports whether stop has begun; queries fail from then on.
func (b *batcher) stopped() bool {
	select {
	case <-b.quit:
		return true
	default:
		return false
	}
}

// stop drains pending requests and shuts the loop down.
func (b *batcher) stop() {
	close(b.quit)
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	for {
		// Wait for the batch opener.
		var first *queryReq
		select {
		case first = <-b.in:
		case <-b.quit:
			b.drain(nil)
			return
		}
		batch := []*queryReq{first}
		// Coalescing window: accept more clients until it closes or the
		// batch is full.
		timer := time.NewTimer(b.d.cfg.BatchWindow)
	window:
		for len(batch) < b.d.cfg.MaxBatch {
			select {
			case req := <-b.in:
				batch = append(batch, req)
			case <-timer.C:
				break window
			case <-b.quit:
				timer.Stop()
				b.drain(batch)
				return
			}
		}
		timer.Stop()
		b.answerBatchSafe(batch)
	}
}

// answerBatchSafe shields the batcher goroutine from a panicking batch.
// Before this guard, one poisoned request killed the loop and every
// later query on the dataset failed with "batcher stopped" while the
// server stayed up. Now the panic is confined to the batch: its
// unanswered requests get the panic as an error and the loop keeps
// serving.
func (b *batcher) answerBatchSafe(batch []*queryReq) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := fmt.Errorf("%w: %v", ErrBatchPanic, r)
		log.Printf("serve: dataset %q: recovered query-batch panic: %v", b.d.name, r)
		for _, req := range batch {
			// Requests answered before the panic already hold their
			// response (resp is buffered, one send per request); only the
			// rest get the error.
			select {
			case req.resp <- queryResp{err: err}:
			default:
			}
		}
	}()
	b.d.answerBatch(batch)
}

// drain answers everything still queued (plus the partial batch) before
// shutdown, so no client blocks forever.
func (b *batcher) drain(batch []*queryReq) {
	for {
		select {
		case req := <-b.in:
			batch = append(batch, req)
		default:
			if len(batch) > 0 {
				b.answerBatchSafe(batch)
			}
			return
		}
	}
}
