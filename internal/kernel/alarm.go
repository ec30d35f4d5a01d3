package kernel

import "repro/internal/sim"

// alarm is a pending timer: at deadline, deliver MsgAlarm to ep.
type alarm struct {
	deadline sim.Cycles
	ep       Endpoint
	seq      uint64 // tie-breaker for determinism
}

// before is the heap order: (deadline, seq), a strict total order.
func (a alarm) before(b alarm) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// alarmHeap is a binary min-heap of alarms by (deadline, seq). push and
// pop sift exactly as the standard library's heap package does, so the
// array — which an image carries as it stands — is laid out as it always
// was; they take and return the alarm by value, so nothing is boxed.
type alarmHeap []alarm

func (h *alarmHeap) push(a alarm) {
	*h = append(*h, a)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s[j].before(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *alarmHeap) pop() alarm {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].before(s[j]) {
			j = r
		}
		if !s[j].before(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// addAlarm schedules an alarm delivery.
func (k *Kernel) addAlarm(ep Endpoint, deadline sim.Cycles) {
	k.alarmSeq++
	k.alarms.push(alarm{deadline: deadline, ep: ep, seq: k.alarmSeq})
}

// fireDueAlarms delivers every alarm whose deadline has passed.
func (k *Kernel) fireDueAlarms() {
	for len(k.alarms) > 0 && k.alarms[0].deadline <= k.clock.Now() {
		k.deliverAlarm(k.alarms.pop())
	}
}

// advanceToNextEvent jumps virtual time to the earliest pending event —
// a live alarm, a deferred crash or an IPC-plane deadline — when the
// machine is otherwise idle, pruning stale alarms of dead processes
// along the way. It reports whether the machine holds a pending event
// at all (the main loop then processes it).
func (k *Kernel) advanceToNextEvent() bool {
	for len(k.alarms) > 0 {
		if p := k.procs.get(k.alarms[0].ep); p != nil && p.Alive() {
			break
		}
		k.alarms.pop() // stale alarm for a dead process
	}
	var next sim.Cycles
	have := false
	if len(k.alarms) > 0 {
		next = k.alarms[0].deadline
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
	p := k.procs.get(a.ep)
	if p == nil || !p.Alive() {
		return
	}
	p.pushMsg(&Message{Type: MsgAlarm, From: EpKernel, To: a.ep})
	k.counters.AddID(ctrAlarmsFired, 1)
}
