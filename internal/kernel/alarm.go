package kernel

import (
	"container/heap"

	"repro/internal/sim"
)

// alarm is a pending timer: at deadline, deliver MsgAlarm to ep.
type alarm struct {
	deadline sim.Cycles
	ep       Endpoint
	seq      uint64 // tie-breaker for determinism
}

// alarmHeap orders alarms by (deadline, seq).
type alarmHeap []alarm

func (h alarmHeap) Len() int { return len(h) }
func (h alarmHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h alarmHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *alarmHeap) Push(x any)   { *h = append(*h, x.(alarm)) }
func (h *alarmHeap) Pop() any     { old := *h; n := len(old); a := old[n-1]; *h = old[:n-1]; return a }

// addAlarm schedules an alarm delivery.
func (k *Kernel) addAlarm(ep Endpoint, deadline sim.Cycles) {
	k.alarmSeq++
	heap.Push((*alarmHeap)(&k.alarms), alarm{deadline: deadline, ep: ep, seq: k.alarmSeq})
}

// fireDueAlarms delivers every alarm whose deadline has passed.
func (k *Kernel) fireDueAlarms() {
	h := (*alarmHeap)(&k.alarms)
	for h.Len() > 0 && (*h)[0].deadline <= k.clock.Now() {
		a := heap.Pop(h).(alarm)
		k.deliverAlarm(a)
	}
}

// advanceToNextEvent jumps virtual time to the earliest pending event —
// a live alarm, a deferred crash or an IPC-plane deadline — when the
// machine is otherwise idle, pruning stale alarms of dead processes
// along the way. It reports whether the machine holds a pending event
// at all (the main loop then processes it).
func (k *Kernel) advanceToNextEvent() bool {
	h := (*alarmHeap)(&k.alarms)
	for h.Len() > 0 {
		a := (*h)[0]
		if p := k.procs[a.ep]; p != nil && p.Alive() {
			break
		}
		heap.Pop(h) // stale alarm for a dead process
	}
	var next sim.Cycles
	have := false
	if h.Len() > 0 {
		next = (*h)[0].deadline
		have = true
	}
	for _, qc := range k.pendingCrashes {
		if !have || qc.due < next {
			next = qc.due
			have = true
		}
	}
	if k.ipcNextDue != ipcNone && (!have || k.ipcNextDue < next) {
		next = k.ipcNextDue
		have = true
	}
	if !have {
		return false
	}
	if next > k.clock.Now() {
		k.clock.Advance(next - k.clock.Now())
	}
	return true
}

func (k *Kernel) deliverAlarm(a alarm) {
	p := k.procs[a.ep]
	if p == nil || !p.Alive() {
		return
	}
	p.pushMsg(Message{Type: MsgAlarm, From: EpKernel, To: a.ep})
	k.counters.AddID(ctrAlarmsFired, 1)
}
