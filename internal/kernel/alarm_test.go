package kernel

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refHeap is the container/heap the alarm heap replaced: its array is
// the layout an image carries, so push and pop must sift exactly as it
// does, not merely pop in the same order.
type refHeap []alarm

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(alarm)) }
func (h *refHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// Random push/pop interleavings over a handful of deadlines, so most of
// them tie: every pop is the least pending alarm by (deadline, seq) — the
// head of a sorted reference — and the array matches container/heap's
// after every operation.
func TestAlarmHeapPopsInDeadlineSeqOrder(t *testing.T) {
	rng := sim.NewRNG(5)
	for round := 0; round < 200; round++ {
		var h alarmHeap
		var ref refHeap
		var sorted []alarm
		var seq uint64
		for op := 0; op < 300; op++ {
			if len(h) == 0 || rng.Intn(3) != 0 {
				seq++
				a := alarm{deadline: sim.Cycles(rng.Intn(8)), ep: Endpoint(rng.Intn(200)), seq: seq}
				h.push(a)
				heap.Push(&ref, a)
				i, _ := slices.BinarySearchFunc(sorted, a, func(x, y alarm) int {
					if x.before(y) {
						return -1
					}
					return 1
				})
				sorted = slices.Insert(sorted, i, a)
			} else {
				got, want := h.pop(), heap.Pop(&ref).(alarm)
				if got != sorted[0] || got != want {
					t.Fatalf("round %d op %d: pop = %+v, want %+v", round, op, got, sorted[0])
				}
				sorted = sorted[1:]
			}
			if !slices.Equal(h, alarmHeap(ref)) {
				t.Fatalf("round %d op %d: heap array %v, container/heap's %v", round, op, h, ref)
			}
		}
	}
}
