package asim

import (
	"container/heap"
	"testing"

	"barterdist/internal/xrand"
)

// referenceQueue is the event queue on container/heap, the reference
// the engine's queue must pop in the same order as.
type referenceQueue []*event

func (q referenceQueue) Len() int { return len(q) }
func (q referenceQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q referenceQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *referenceQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *referenceQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// TestEventQueueMatchesReferenceHeap drives the engine's queue and a
// container/heap queue through the same random pushes and pops, with
// event times drawn from a few values so that most pops break a tie on
// seq, and requires the same event from every pop.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		var q eventQueue
		var ref referenceQueue
		seq, now := 0, 0.0
		ties := 1 + rng.Intn(6)
		for step := 0; step < 3000; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				seq++
				ev := &event{at: now + float64(rng.Intn(ties)), seq: seq}
				if rng.Intn(4) == 0 {
					ev.at += 0.5 * rng.Float64()
				}
				q.push(ev)
				heap.Push(&ref, ev)
				continue
			}
			got, want := q.pop(), heap.Pop(&ref).(*event)
			if got != want {
				t.Fatalf("seed %d step %d: popped (at %v, seq %d), reference (at %v, seq %d)",
					seed, step, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		}
		for len(ref) > 0 {
			if got, want := q.pop(), heap.Pop(&ref).(*event); got != want {
				t.Fatalf("seed %d drain: popped seq %d, reference seq %d", seed, got.seq, want.seq)
			}
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: queue holds %d events after the reference drained", seed, len(q))
		}
	}
}
