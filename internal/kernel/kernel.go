// Package kernel implements the microkernel substrate of the simulated
// compartmentalized operating system: endpoints, synchronous message
// passing, a deterministic cooperative scheduler, crash trapping, alarms
// and the virtual-cycle cost model.
//
// Every simulated process — OS server or user program — runs its body on
// a host coroutine (coro.go). It suspends when it blocks in
// Receive/SendRec, when its scheduling quantum expires inside Tick, or
// when it exits or crashes, naming the process the loop would pick next
// if picking is all the loop would do; it switches into that successor
// itself, or passes control back down to it when the successor is one of
// the processes that resumed it, and back to the kernel loop when it
// names none. There is one flow of control, handed around explicitly on
// one OS thread — no host scheduler, no channel, no wake-up between two
// simulated context switches — so the entire machine is deterministic
// given its seed, by construction and at any GOMAXPROCS.
//
// A panic inside a process is trapped by the kernel and treated as a
// fail-stop crash of that component (paper §II-E): the kernel records
// the crash and invokes the registered recovery handler (the OSIRIS
// recovery engine) in kernel context with userland stalled.
package kernel

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Endpoint identifies a process (server or user program) for IPC.
type Endpoint int

// Well-known endpoints. Servers get fixed endpoints at boot; user
// processes are allocated from EpUserBase upward.
const (
	// EpNone is the zero, invalid endpoint.
	EpNone Endpoint = 0
	// EpKernel is the source of kernel-generated messages (alarms,
	// crash notifications). It is not a schedulable process.
	EpKernel Endpoint = 1
	// EpRS is the Recovery Server.
	EpRS Endpoint = 2
	// EpPM is the Process Manager.
	EpPM Endpoint = 3
	// EpVM is the Virtual Memory Manager.
	EpVM Endpoint = 4
	// EpVFS is the Virtual File System server.
	EpVFS Endpoint = 5
	// EpDS is the Data Store.
	EpDS Endpoint = 6
	// EpDriver is the block device driver.
	EpDriver Endpoint = 7
	// EpUserBase is the first endpoint handed to user processes.
	EpUserBase Endpoint = 100
)

// MsgType discriminates message payloads. Values below 100 are reserved
// for the kernel; the proto package defines the server protocols.
type MsgType int32

const (
	// MsgAlarm is delivered from EpKernel when a requested alarm fires.
	MsgAlarm MsgType = 1
	// MsgCrashNotify is delivered from EpKernel to the Recovery Server
	// after a component crash has been handled, so RS can account for it.
	MsgCrashNotify MsgType = 2
	// MsgQuarantineNotify is delivered from EpKernel to the Recovery
	// Server after a component has been quarantined, so RS can account
	// for the degraded configuration.
	MsgQuarantineNotify MsgType = 3
)

// Errno is a system error code carried in replies.
type Errno int32

// Error codes. OK must be zero so a zero-valued reply means success.
const (
	OK Errno = 0
	// ECRASH reports that the server handling the request crashed and
	// the request was aborted by recovery (error virtualization).
	ECRASH Errno = 1 + iota
	// EDEADSRCDST reports that the destination endpoint does not exist
	// or is dead.
	EDEADSRCDST
	// ESHUTDOWN reports that the system is shutting down.
	ESHUTDOWN
	// ENOENT reports a missing file or object.
	ENOENT
	// EEXIST reports that an object already exists.
	EEXIST
	// EBADF reports an invalid descriptor.
	EBADF
	// EINVAL reports an invalid argument.
	EINVAL
	// ENOMEM reports memory exhaustion.
	ENOMEM
	// ENOSPC reports block or table exhaustion.
	ENOSPC
	// ECHILD reports that no waitable child exists.
	ECHILD
	// ESRCH reports that no such process exists.
	ESRCH
	// EAGAIN reports a transient resource shortage.
	EAGAIN
	// EPIPE reports a write to a pipe with no reader.
	EPIPE
	// EISDIR reports a file operation on a directory.
	EISDIR
	// ENOTDIR reports a directory operation on a non-directory.
	ENOTDIR
	// EIO reports a device input/output error.
	EIO
	// EPERM reports an operation that the caller may not perform.
	EPERM
	// ENOSYS reports an unimplemented request type.
	ENOSYS
	// ETIMEDOUT reports that a request was abandoned by the IPC
	// reliability layer after exhausting its retransmission budget
	// (dead-lettered).
	ETIMEDOUT
)

// String renders the errno symbolically.
func (e Errno) String() string {
	switch e {
	case OK:
		return "OK"
	case ECRASH:
		return "ECRASH"
	case EDEADSRCDST:
		return "EDEADSRCDST"
	case ESHUTDOWN:
		return "ESHUTDOWN"
	case ENOENT:
		return "ENOENT"
	case EEXIST:
		return "EEXIST"
	case EBADF:
		return "EBADF"
	case EINVAL:
		return "EINVAL"
	case ENOMEM:
		return "ENOMEM"
	case ENOSPC:
		return "ENOSPC"
	case ECHILD:
		return "ECHILD"
	case ESRCH:
		return "ESRCH"
	case EAGAIN:
		return "EAGAIN"
	case EPIPE:
		return "EPIPE"
	case EISDIR:
		return "EISDIR"
	case ENOTDIR:
		return "ENOTDIR"
	case EIO:
		return "EIO"
	case EPERM:
		return "EPERM"
	case ENOSYS:
		return "ENOSYS"
	case ETIMEDOUT:
		return "ETIMEDOUT"
	default:
		return fmt.Sprintf("Errno(%d)", int32(e))
	}
}

// Message is the unit of IPC. Payload fields are generic registers, as
// in MINIX message structs; each protocol documents its usage.
//
// Bytes is lent, not given. A receiver treats it as READ-ONLY: it may be
// a device's own block or a server's stored value (a file read inside one
// block, a pipe's contents), shared with the store's undo log, a snapshot
// and its forks. A receiver that wants to change it copies it first; an
// append is safe, because a lent slice has its capacity clipped. A sender
// keeps its buffer: a receiver that keeps the bytes past its handler
// copies them or, like the block device, is handed ownership by its
// protocol.
type Message struct {
	Type       MsgType
	From, To   Endpoint
	NeedsReply bool
	Errno      Errno
	A, B, C, D int64
	Str, Str2  string
	Bytes      []byte
	Aux        any
	// Seq and Sum are stamped by the IPC reliability layer: a
	// per-(src,dst) sequence number for duplicate suppression and reply
	// matching, and a payload checksum for corruption detection. Zero
	// on a machine without an IPC plane.
	Seq, Sum uint32
}

// CostModel holds the virtual-cycle costs of kernel operations.
type CostModel struct {
	// MsgHop is the cost of transferring one message between address
	// spaces, including the context switch (microkernel mode).
	MsgHop sim.Cycles
	// Trap is the cost of a syscall trap in monolithic mode.
	Trap sim.Cycles
	// Monolithic selects the monolithic-kernel cost model used as the
	// "Linux" baseline of Table IV: IPC costs Trap instead of MsgHop.
	Monolithic bool
	// Quantum is the number of cycles a process may consume in Tick
	// before it is preempted (cooperatively, inside Tick).
	Quantum sim.Cycles
	// ServerWorkScale multiplies Tick charges inside OS servers,
	// calibrating handler instruction volume against IPC cost (real
	// servers execute far more instructions per request than one
	// message hop costs). Zero means 1.
	ServerWorkScale sim.Cycles
}

// DefaultCostModel returns the microkernel cost model used throughout
// the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
		MsgHop:          400,
		Trap:            50,
		Quantum:         20000,
		ServerWorkScale: 4,
	}
}

// ipcCost returns the cost of one message transfer under the model.
func (c CostModel) ipcCost() sim.Cycles {
	if c.Monolithic {
		return c.Trap / 2
	}
	return c.MsgHop
}

// RunOutcome classifies how a simulation run ended.
type RunOutcome int

const (
	// OutcomeCompleted: the root workload process exited normally.
	OutcomeCompleted RunOutcome = iota + 1
	// OutcomeShutdown: the recovery engine performed a controlled
	// shutdown because consistent recovery could not be guaranteed.
	OutcomeShutdown
	// OutcomeCrashed: an uncontrolled failure — a panic outside any
	// recoverable component, a crash during recovery itself, or a
	// cascading failure the engine gave up on.
	OutcomeCrashed
	// OutcomeDeadlock: no process was runnable and no alarm pending
	// before the workload finished.
	OutcomeDeadlock
	// OutcomeHang: the cycle limit was exceeded.
	OutcomeHang
)

// String names the outcome.
func (o RunOutcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeShutdown:
		return "shutdown"
	case OutcomeCrashed:
		return "crashed"
	case OutcomeDeadlock:
		return "deadlock"
	case OutcomeHang:
		return "hang"
	default:
		return fmt.Sprintf("RunOutcome(%d)", int(o))
	}
}

// Result summarizes a completed simulation run.
type Result struct {
	Outcome RunOutcome
	Reason  string
	// Cycles is the virtual time at which the run ended.
	Cycles sim.Cycles
}

// CrashInfo describes a trapped component crash, handed to the
// registered recovery handler.
type CrashInfo struct {
	// Victim is the crashed endpoint; Name its component name.
	Victim Endpoint
	Name   string
	// CurSender is the endpoint whose request was in flight (EpNone if
	// the component was idle), and CurNeedsReply whether that request
	// expects a reply (whether error virtualization is possible).
	CurSender     Endpoint
	CurNeedsReply bool
	// PanicValue is the recovered panic payload.
	PanicValue any
	// DuringRecovery is true when the crash occurred while the recovery
	// engine was already handling an earlier crash (violating the
	// single-fault assumption). The kernel re-queues such crashes so the
	// engine can escalate instead of aborting the run.
	DuringRecovery bool
	// Deferred is true when the crash was queued with a backoff delay by
	// the recovery engine (DeferCrash) and is now being redelivered.
	Deferred bool
}

// queuedCrash is one entry of the pending-crash queue: a trapped crash
// and the earliest virtual time at which it may be handled. Crashes are
// handled serially in FIFO-by-due-time order, so overlapping failures
// are sequenced instead of aborting the run.
type queuedCrash struct {
	info CrashInfo
	due  sim.Cycles
}

// CrashHandler reacts to a component crash in kernel context with
// userland stalled. Returning an error aborts the run as an
// uncontrolled crash.
type CrashHandler func(info CrashInfo) error

// Kernel is one simulated machine.
type Kernel struct {
	clock    *sim.Clock
	rng      *sim.RNG
	counters *sim.Counters
	cost     CostModel

	// machineRegs are the scalars an image carries (snapshot.go): the
	// round-robin cursor, the endpoint and alarm allocators, the root
	// endpoint and the earliest pending IPC event.
	machineRegs

	procs procTable
	order []Endpoint
	// ready indexes schedulable processes by order position; the
	// round-robin pick is a find-first-set instead of a table scan.
	ready readySet
	// cycleLimit is the Run bound, latched so the fused-dispatch fast
	// path can honor it without a kernel round trip.
	cycleLimit sim.Cycles

	// running is the process whose body has control; nil while the
	// kernel loop itself does.
	running *Process
	// arena holds the host scaffolding the machine took from the machine
	// before it and gives back to the next at Release (arena.go).
	arena *Arena
	// idleCoros is the free list of coroutines whose last body ended; the
	// arena supplies one when it is empty. corosCreated counts the
	// coroutines the machine created itself (tests bound it).
	idleCoros    []*coro
	corosCreated int
	// switches counts the coroutine switches the machine made (tests
	// hold the switch budget of a round trip with it).
	switches uint64

	pendingCrashes []queuedCrash
	// pendingByEp counts queued crashes per victim so RecoveryPending
	// is O(1) on the IPC path.
	pendingByEp  map[Endpoint]int
	inRecovery   bool
	crashHandler CrashHandler
	// recoveryPanics counts consecutive crash-handler panics per victim;
	// it backstops handlers that fail the same way forever.
	recoveryPanics map[Endpoint]int
	// quarantined maps detached endpoints to the quarantine reason. All
	// IPC to a quarantined endpoint is error-virtualized to ECRASH.
	quarantined map[Endpoint]string

	alarms alarmHeap

	done    bool
	outcome RunOutcome
	reason  string

	// ipc is the fault-injection/reliability interposition plane; nil
	// (the default) leaves every IPC path untouched.
	ipc *ipcPlane

	// pointHook sees the executions of the sites in pointSites, or of
	// every site when pointSites is nil (SetPointHook).
	pointHook  func(ep Endpoint, name, site string)
	pointSites []string
	tracer     func(format string, args ...any)
	// replyErrnoOverride forces the next reply sent by the given
	// endpoint to carry this errno (EDFI wrong-error fault model).
	replyErrnoOverride map[Endpoint]Errno

	// Warm-fork plane (snapshot.go). barrierArmed makes the next
	// Context.Barrier call park its process and stop RunToBarrier;
	// unarmed (every ordinary machine), Barrier is a complete no-op.
	// barrierHit latches that the quiescence barrier was reached.
	// forkResume names the process Run must resume first on
	// a forked machine — resuming it exactly where the captured machine
	// parked, without an extra dispatch count.
	barrierArmed bool
	barrierHit   bool
	forkResume   *Process
	// imageProcs are the process entries of the machine's captures: the
	// last one's are a prefix, and each capture's image holds a prefix
	// (CaptureImage).
	imageProcs []procImage

	// Wedge-certificate plane (SetIdleHook, wedge.go). idleHook is nil on
	// every machine but a warm-served campaign run; userWakes counts
	// user-process wake-ups (markSched).
	idleHook  func() bool
	userWakes uint64

	// Leaf steps (leaf.go). raise is a panic of a step run on a yielding
	// process's coroutine, for the server's own coroutine, the next to
	// run, to raise. leafCalls counts the steps served so (LeafCalls).
	raise     any
	leafCalls uint64
}

// New creates a machine with the given cost model and seed, on a private
// arena.
func New(cost CostModel, seed uint64) *Kernel { return NewIn(nil, cost, seed) }

// NewIn is New on the scaffolding of arena a (arena.go); a nil a makes a
// private one.
func NewIn(a *Arena, cost CostModel, seed uint64) *Kernel {
	if a == nil {
		a = &Arena{private: true}
	}
	if a.owner != nil {
		panic("kernel: the arena already serves a live machine")
	}
	k := &Kernel{
		arena:              a,
		procs:              a.procs,
		order:              a.order,
		ready:              readySet{a.ready},
		clock:              &sim.Clock{},
		rng:                sim.NewRNG(seed),
		counters:           sim.NewCounters(),
		cost:               cost,
		machineRegs:        machineRegs{nextUserEp: EpUserBase, ipcNextDue: ipcNone},
		replyErrnoOverride: make(map[Endpoint]Errno),
		recoveryPanics:     make(map[Endpoint]int),
		quarantined:        make(map[Endpoint]string),
		pendingByEp:        make(map[Endpoint]int),
	}
	a.owner = k
	a.procs, a.order, a.ready = nil, nil, nil
	return k
}

// Clock returns the machine's virtual clock.
func (k *Kernel) Clock() *sim.Clock { return k.clock }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Cycles { return k.clock.Now() }

// Counters returns the machine's statistics counters.
func (k *Kernel) Counters() *sim.Counters { return k.counters }

// SetCrashHandler installs the recovery engine invoked on component
// crashes. Without a handler, any component crash aborts the run.
func (k *Kernel) SetCrashHandler(h CrashHandler) { k.crashHandler = h }

// SetPointHook installs the fault-injection hook invoked at the
// instrumentation points of every process: at every site when no sites
// are given, and otherwise only where the executing site is one of them
// (an armed site). A nil h detaches the hook. A hook may re-install
// itself, or detach, from inside its own call; the change applies from
// the next point on.
func (k *Kernel) SetPointHook(h func(ep Endpoint, name, site string), sites ...string) {
	k.pointHook, k.pointSites = h, nil
	if h != nil && len(sites) > 0 {
		k.pointSites = slices.Clone(sites)
	}
}

// SetTracer installs a diagnostic event tracer (nil disables tracing).
// Events cover message receipt, reply delivery and crash handling. Every
// event site tests k.tracer before it builds the event: boxing the
// arguments of a variadic call allocates, and the sites sit on the
// per-message path.
func (k *Kernel) SetTracer(t func(format string, args ...any)) { k.tracer = t }

// SetRootProcess marks ep as the root workload process; its normal exit
// completes the run.
func (k *Kernel) SetRootProcess(ep Endpoint) { k.rootEp = ep }

// InRecovery reports whether the kernel is currently executing the
// crash handler (recovery in progress, userland stalled).
func (k *Kernel) InRecovery() bool { return k.inRecovery }

// ControlledShutdown stops the machine with OutcomeShutdown. Called by
// the recovery engine when consistent recovery cannot be guaranteed.
func (k *Kernel) ControlledShutdown(reason string) {
	if k.done {
		return
	}
	k.done = true
	k.outcome = OutcomeShutdown
	k.reason = reason
}

// Abort stops the machine with OutcomeCrashed. Used for unrecoverable
// internal inconsistencies.
func (k *Kernel) Abort(reason string) {
	if k.done {
		return
	}
	k.done = true
	k.outcome = OutcomeCrashed
	k.reason = reason
}

// OverrideNextReplyErrno forces the next reply sent by ep to carry
// errno e (EDFI wrong-error fault emulation).
func (k *Kernel) OverrideNextReplyErrno(ep Endpoint, e Errno) {
	k.replyErrnoOverride[ep] = e
}

// Run drives the machine until the root process exits, a shutdown or
// crash occurs, deadlock is detected, or cycleLimit is exceeded. It
// always unwinds every process body and ends every coroutine before
// returning.
func (k *Kernel) Run(cycleLimit sim.Cycles) Result {
	defer k.killAll()
	k.barrierHit = false
	k.runLoop(cycleLimit)
	return k.StepResult()
}

// StepResult summarizes the machine as Run would return it. A caller of
// RunToBarrier, which returns no Result, reads the end of a run that
// finished before the next barrier from here.
func (k *Kernel) StepResult() Result {
	return Result{Outcome: k.outcome, Reason: k.reason, Cycles: k.clock.Now()}
}

// Teardown force-stops a machine left parked by RunToBarrier, unwinds
// every process body and ends every coroutine (Run does this via its
// deferred killAll). Idempotent.
func (k *Kernel) Teardown(reason string) {
	if !k.done {
		k.done = true
		k.outcome = OutcomeShutdown
		k.reason = reason
	}
	k.killAll()
}

// runLoop is the one scheduler loop, and Run and RunToBarrier are its
// only two drivers: it runs the machine until the run is done or — only
// when RunToBarrier armed one — a process parks at a Context.Barrier.
func (k *Kernel) runLoop(cycleLimit sim.Cycles) {
	k.cycleLimit = cycleLimit
	if p := k.forkResume; p != nil && !k.done {
		// Forked or barrier-parked machine: switch straight to the process
		// parked at the quiescence barrier. No dispatch is counted — the
		// captured machine already counted the dispatch this continues.
		k.forkResume = nil
		k.handOff(nil, p)
	}
	for !k.done && !k.barrierHit {
		if k.handleDueCrash() {
			continue
		}
		if k.clock.Now() > k.cycleLimit {
			k.endAsHang()
			continue
		}
		k.fireDueAlarms()
		if k.clock.Now() >= k.ipcNextDue {
			k.fireDueIPC()
		}
		if p := k.pickRunnable(); p != nil {
			k.counters.AddID(ctrDispatches, 1)
			k.handOff(nil, p)
			continue
		}
		// Idle: no process is runnable. An installed idle hook may prove
		// that the machine will stay like this until the cycle limit.
		if k.idleHook != nil && k.idleHook() {
			k.endAsHang()
			break
		}
		if !k.advanceToNextEvent() {
			k.done = true
			k.outcome = OutcomeDeadlock
			k.reason = "no runnable process and no pending alarm: " + k.describeBlocked()
		}
	}
}

// endAsHang ends the run the way exceeding the cycle limit does.
func (k *Kernel) endAsHang() {
	k.done = true
	k.outcome = OutcomeHang
	k.reason = "cycle limit exceeded"
}

// SetIdleHook installs a callback the Run/RunToBarrier loop invokes
// whenever it finds no runnable process, before jumping the clock to
// the next pending event. Returning true ends the run exactly as the
// cycle limit would (OutcomeHang, "cycle limit exceeded"): the caller
// has proven the machine wedged — see WedgeQuiescent and WedgeStamp for
// the kernel's share of such a proof. Nil (the default) leaves the loop
// untouched.
func (k *Kernel) SetIdleHook(h func() (wedged bool)) { k.idleHook = h }

// queueCrash appends a crash to the pending queue for handling at or
// after due. Crashes trapped while another recovery is queued or active
// wait their turn instead of aborting the run.
func (k *Kernel) queueCrash(info CrashInfo, due sim.Cycles) {
	k.pendingCrashes = append(k.pendingCrashes, queuedCrash{info: info, due: due})
	k.pendingByEp[info.Victim]++
}

// DeferCrash re-queues a crash for handling after delay cycles. The
// recovery engine uses it to apply restart backoff: the crash
// re-arrives with Deferred set, and the component stays detached (its
// inbox intact) until then.
func (k *Kernel) DeferCrash(info CrashInfo, delay sim.Cycles) {
	info.Deferred = true
	k.counters.AddID(ctrCrashesDeferred, 1)
	k.queueCrash(info, k.clock.Now()+delay)
}

// RecoveryPending reports whether a trapped crash of ep is queued
// awaiting recovery. IPC to such an endpoint blocks (the inbox survives
// the restart) instead of failing with EDEADSRCDST. O(1) via the
// per-endpoint pending index.
func (k *Kernel) RecoveryPending(ep Endpoint) bool {
	return k.pendingByEp[ep] > 0
}

// IPCWaiting reports whether ep is blocked in a SendRec whose
// completion the IPC reliability layer guarantees: the sender's
// deadline is armed, so the kernel will retransmit, redeliver the
// cached reply, or unblock it with a synthetic ETIMEDOUT. Such a
// process is provably live — hang detection must not fail-stop it for
// being silent while it waits out transport loss. Always false without
// an IPC plane, so fault-free runs are unaffected.
func (k *Kernel) IPCWaiting(ep Endpoint) bool {
	if k.ipc == nil {
		return false
	}
	p := k.procs.get(ep)
	return p != nil && p.state == stateSendRec && p.sendDeadline != 0
}

// handleDueCrash pops and handles the first queued crash whose due time
// has arrived. It reports whether a crash was handled.
func (k *Kernel) handleDueCrash() bool {
	for i, qc := range k.pendingCrashes {
		if qc.due > k.clock.Now() {
			continue
		}
		k.pendingCrashes = append(k.pendingCrashes[:i], k.pendingCrashes[i+1:]...)
		if n := k.pendingByEp[qc.info.Victim] - 1; n > 0 {
			k.pendingByEp[qc.info.Victim] = n
		} else {
			delete(k.pendingByEp, qc.info.Victim)
		}
		k.handleCrash(qc.info)
		return true
	}
	return false
}

// dropQueuedCrashes discards pending crashes of ep (quarantine: the
// component will never be recovered).
func (k *Kernel) dropQueuedCrashes(ep Endpoint) {
	kept := k.pendingCrashes[:0]
	for _, qc := range k.pendingCrashes {
		if qc.info.Victim != ep {
			kept = append(kept, qc)
		}
	}
	k.pendingCrashes = kept
	delete(k.pendingByEp, ep)
}

// maxRecoveryPanics bounds consecutive crash-handler panics for one
// victim before the kernel gives up on it. The recovery engine
// normally escalates to quarantine long before this backstop fires; it
// exists so a raw handler that panics forever cannot livelock the run.
const maxRecoveryPanics = 32

// handleCrash runs the recovery engine in kernel context.
func (k *Kernel) handleCrash(info CrashInfo) {
	if k.tracer != nil {
		k.tracer("crash: %s(%d) sender=%d replyable=%v panic=%v deferred=%v duringRecovery=%v",
			info.Name, info.Victim, info.CurSender, info.CurNeedsReply, info.PanicValue,
			info.Deferred, info.DuringRecovery)
	}
	if !info.Deferred {
		k.counters.AddID(ctrCrashes, 1)
	}
	if k.crashHandler == nil {
		k.Abort(fmt.Sprintf("component %s crashed with no recovery handler: %v", info.Name, info.PanicValue))
		return
	}
	k.inRecovery = true
	err, panicked := k.invokeCrashHandler(info)
	k.inRecovery = false
	switch {
	case panicked:
		// The recovery path itself crashed (e.g. an injected fault in
		// component code executed during restart). Re-queue the incident
		// as a during-recovery crash so the engine can escalate —
		// bounded, so a handler that always panics cannot loop forever.
		k.recoveryPanics[info.Victim]++
		if k.recoveryPanics[info.Victim] > maxRecoveryPanics {
			k.Abort(fmt.Sprintf("recovery of %s failed: %v", info.Name, err))
			return
		}
		k.counters.AddID(ctrRecoveryPanics, 1)
		next := info
		next.DuringRecovery = true
		next.Deferred = false
		k.queueCrash(next, k.clock.Now())
	case err != nil:
		k.Abort(fmt.Sprintf("recovery of %s failed: %v", info.Name, err))
	default:
		delete(k.recoveryPanics, info.Victim)
	}
}

// invokeCrashHandler isolates handler panics: a panic inside the
// recovery path itself (e.g. an injected fault in component code
// executed during restart) is reported so the caller can sequence a
// retry or escalate.
func (k *Kernel) invokeCrashHandler(info CrashInfo) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic during recovery: %v", r)
			panicked = true
		}
	}()
	return k.crashHandler(info), false
}

// IsQuarantined reports whether ep has been detached by quarantine.
func (k *Kernel) IsQuarantined(ep Endpoint) bool {
	_, q := k.quarantined[ep]
	return q
}

// QuarantineProcess permanently detaches the process at ep as graceful
// degradation: its body is unwound, queued messages are dropped,
// every blocked caller receives ECRASH, and all subsequent IPC to ep is
// error-virtualized to ECRASH by the kernel so the rest of the system
// keeps running. Must not be called on the currently running process.
func (k *Kernel) QuarantineProcess(ep Endpoint, reason string) error {
	p := k.procs.get(ep)
	if p == nil || p.procLive == nil {
		return fmt.Errorf("kernel: no process at endpoint %d", ep)
	}
	if k.IsQuarantined(ep) {
		return nil
	}
	if p == k.running {
		panic("kernel: QuarantineProcess on the running process")
	}
	p.reap(stateDead)
	k.quarantined[ep] = reason
	k.dropQueuedCrashes(ep)
	k.FailPendingCallers(ep, ECRASH)
	k.counters.AddID(ctrQuarantines, 1)
	if k.tracer != nil {
		k.tracer("quarantine: %s(%d): %s", p.name, ep, reason)
	}
	return nil
}

// chargeIPC advances the clock by one message-transfer cost.
func (k *Kernel) chargeIPC() {
	k.clock.Advance(k.cost.ipcCost())
	k.counters.AddID(ctrMsgHops, 1)
}

// Point is invoked by Context.Point; it also serves the recovery
// coverage accounting. Without a hook, accounting is all it costs; with
// one armed at other sites, a scan of those too.
func (k *Kernel) point(p *Process, site string) {
	if p.window != nil {
		p.window.AccountBlock()
	}
	if k.pointHook == nil {
		return
	}
	if k.pointSites != nil && !slices.Contains(k.pointSites, site) {
		return
	}
	k.pointHook(p.ep, p.name, site)
}

// describeBlocked summarizes the non-dead processes for deadlock
// diagnostics. It is only invoked on the deadlock path, never during
// normal scheduling, and builds its output in a single pass over a
// strings.Builder rather than repeated string concatenation.
func (k *Kernel) describeBlocked() string {
	var out strings.Builder
	for _, ep := range k.order {
		p := k.procs.get(ep)
		if p == nil || !p.Alive() {
			continue
		}
		if out.Len() > 0 {
			out.WriteString(", ")
		}
		fmt.Fprintf(&out, "%s(%d):", p.name, ep)
		switch p.state {
		case stateReceiving:
			out.WriteString("receiving")
		case stateSendRec:
			fmt.Fprintf(&out, "sendrec->%d", p.waitFrom)
		default:
			out.WriteString("runnable")
		}
	}
	return out.String()
}
