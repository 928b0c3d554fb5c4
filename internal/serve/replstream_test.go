package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/wal"
)

// TestReplStreamMatchesContiguousModel drives the chunked replication
// stream with random append / trim / tail schedules against the model
// it replaced — one contiguous buffer holding every byte ever appended,
// plus the trim rule — and requires the same bytes, offsets and errors
// from WALTail at every step (ErrWALRange is the 416 of the wal
// endpoint, which TestReplStreamTrimFloor pins over HTTP).
func TestReplStreamMatchesContiguousModel(t *testing.T) {
	for _, retain := range []int{1, 3, 7, -1} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("retain=%d/seed=%d", retain, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(retain+9)))
				s := New(Config{ReplRetain: retain})
				defer s.Close()
				d, err := s.CreateDataset("m", "piecewise", 16, 100, seed, 50)
				if err != nil {
					t.Fatal(err)
				}
				// The model: all stream bytes from logical offset 0, and the
				// start offset of every frame so the trim rule can be replayed.
				end := d.Summary().WALOffset
				first, _, _, _, err := d.WALTail(0)
				if err != nil || int64(len(first)) != end {
					t.Fatalf("seed stream: %d bytes, end %d, err %v", len(first), end, err)
				}
				model := append([]byte(nil), first...)
				starts := []int64{0}
				for step := 0; step < 300; step++ {
					// Append a frame of random size (zero-length payloads included).
					payload := make([]byte, rng.IntN(40)*rng.IntN(40))
					for i := range payload {
						payload[i] = byte(rng.Uint32())
					}
					d.mu.Lock()
					frame := d.appendReplLocked(wal.TypeBudgetRestore, payload)
					d.mu.Unlock()
					if want := wal.AppendFrame(nil, wal.TypeBudgetRestore, payload); !bytes.Equal(frame, want) {
						t.Fatalf("step %d: stream frame differs from wal.AppendFrame", step)
					}
					starts = append(starts, int64(len(model)))
					model = append(model, frame...)
					base := int64(0)
					if retain > 0 && len(starts) > retain {
						base = starts[len(starts)-retain]
					}
					end := int64(len(model))

					// Summary.WALOffset arithmetic: every byte ever appended.
					if got := d.Summary().WALOffset; got != end {
						t.Fatalf("step %d: WALOffset %d, model end %d", step, got, end)
					}

					// Probe offsets: the floor and its neighbours, the end and
					// beyond, frame boundaries, and the inside of a frame.
					fi := rng.IntN(len(starts))
					probes := []int64{base, base - 1, base + 1, end, end + 1, end - 1, rng.Int64N(end + 1), starts[fi], starts[fi] + 3}
					for _, from := range probes {
						data, next, _, _, err := d.WALTail(from)
						if next != end {
							t.Fatalf("step %d from %d: next %d, model end %d", step, from, next, end)
						}
						switch {
						case from == 0 && base > 0:
							// A trimmed stream serves a regenerated bootstrap at zero:
							// whole frames opening with the identity, next at the live end.
							recs, clean := wal.ScanStream(data)
							if err != nil || clean != len(data) || len(recs) == 0 || recs[0].Type != wal.TypeDatasetCreate {
								t.Fatalf("step %d: bootstrap at 0: %d records, clean %d of %d, err %v", step, len(recs), clean, len(data), err)
							}
						case from < base || from > end || from < 0:
							if !errors.Is(err, ErrWALRange) || data != nil {
								t.Fatalf("step %d from %d (base %d, end %d): err %v, %d bytes; want ErrWALRange", step, from, base, end, err, len(data))
							}
						default:
							if err != nil || !bytes.Equal(data, model[from:]) {
								t.Fatalf("step %d from %d (base %d, end %d): err %v, %d bytes, model has %d", step, from, base, end, err, len(data), end-from)
							}
						}
					}
				}
			})
		}
	}
}
