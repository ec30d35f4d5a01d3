package kernel

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/wire/wiretest"
)

// fpClass says what StateFingerprint does with a field.
type fpClass int

const (
	// hashed: the fingerprint reads it; two machines differing in it must
	// fingerprint differently.
	hashed fpClass = iota + 1
	// excluded: state the fingerprint leaves out on purpose, for the
	// reason given — it does not bear on future behaviour, or another
	// check owns it.
	excluded
	// derived: recomputable from hashed fields.
	derived
	// hostOnly: the simulator's own plumbing — pointers back, functions,
	// configuration equal by construction, coroutines — not simulated
	// state.
	hostOnly
)

const (
	whyQuiescence = "non-empty only on a machine BarrierQuiescent and WedgeQuiescent refuse before a fingerprint is consulted"
	whyPhase      = "scheduling phase: re-arms relative to its last event, so a recovery skews it forever while what it produces is unchanged"
	whyStats      = "statistics: differ between a recovered machine and the fault-free pathfinder without bearing on the future"
	whyStamp      = "compared beside the fingerprint, not in it (suffix stamp, WedgeStamp)"
	whyInFlight   = "contents of a send in flight: only its presence is hashed, and no quiescence predicate admits one"
)

// fingerprintFields classifies every field of the three structs
// StateFingerprint walks, flattened through their embedded structs.
// TestFingerprintFieldTable holds it against the structs: a new field
// must be classified here before the package's tests pass, which is the
// moment to decide whether elision, rejoin and the wedge certificate may
// ignore it.
var fingerprintFields = map[string]struct {
	class fpClass
	why   string
}{
	"Kernel.clock":              {excluded, "absolute time: recovery costs cycles; user alarms are hashed relative to it"},
	"Kernel.rng":                {excluded, whyStamp},
	"Kernel.counters":           {excluded, whyStats},
	"Kernel.cost":               {hostOnly, "configuration"},
	"Kernel.rrNext":             {hashed, ""},
	"Kernel.nextUserEp":         {hashed, ""},
	"Kernel.rootEp":             {hashed, ""},
	"Kernel.alarmSeq":           {excluded, "the alarm heap's tie-break counter: alarms are hashed in canonical order instead"},
	"Kernel.ipcNextDue":         {derived, "earliest of the held messages' and send deadlines' due times"},
	"Kernel.procs":              {hashed, "walked in k.order"},
	"Kernel.order":              {hashed, ""},
	"Kernel.ready":              {derived, "bit == schedulable(), a function of state, inbox and reply"},
	"Kernel.cycleLimit":         {hostOnly, "the Run bound"},
	"Kernel.running":            {hostOnly, "nil whenever the loop, and so a barrier or idle hook, has control"},
	"Kernel.arena":              {hostOnly, "backing arrays and coroutines kept between machines"},
	"Kernel.idleCoros":          {hostOnly, ""},
	"Kernel.corosCreated":       {hostOnly, ""},
	"Kernel.switches":           {hostOnly, "a count of host coroutine switches"},
	"Kernel.raise":              {hostOnly, "nil whenever the loop, and so a barrier or idle hook, has control"},
	"Kernel.leafCalls":          {hostOnly, "a count of the steps served without a switch"},
	"Kernel.pendingCrashes":     {excluded, whyQuiescence},
	"Kernel.pendingByEp":        {excluded, whyQuiescence},
	"Kernel.inRecovery":         {excluded, whyQuiescence},
	"Kernel.crashHandler":       {hostOnly, ""},
	"Kernel.recoveryPanics":     {excluded, whyQuiescence},
	"Kernel.quarantined":        {excluded, whyQuiescence},
	"Kernel.alarms":             {hashed, "canonical form: servers by owner and count (" + whyPhase + "), users by owner and time left"},
	"Kernel.done":               {excluded, "a finished machine is not fingerprinted"},
	"Kernel.outcome":            {excluded, "a finished machine is not fingerprinted"},
	"Kernel.reason":             {excluded, "a finished machine is not fingerprinted"},
	"Kernel.ipc":                {hashed, "presence, then the plane"},
	"Kernel.pointHook":          {hostOnly, ""},
	"Kernel.pointSites":         {hostOnly, ""},
	"Kernel.tracer":             {hostOnly, ""},
	"Kernel.replyErrnoOverride": {excluded, whyQuiescence},
	"Kernel.barrierArmed":       {hostOnly, "the barrier plane's own latches"},
	"Kernel.barrierHit":         {hostOnly, "the barrier plane's own latches"},
	"Kernel.forkResume":         {hostOnly, "the barrier plane's own latches"},
	"Kernel.imageProcs":         {hostOnly, "what the captures' images share"},
	"Kernel.idleHook":           {hostOnly, ""},
	"Kernel.userWakes":          {excluded, whyStamp},

	"Process.k":             {hostOnly, ""},
	"Process.ep":            {derived, "the key the process is walked under"},
	"Process.name":          {excluded, "fixed by the endpoint and the boot path"},
	"Process.isServer":      {excluded, "fixed by the endpoint and the boot path"},
	"Process.state":         {hashed, "a dead process by its existence alone"},
	"Process.orderIdx":      {derived, "position in k.order"},
	"Process.body":          {hostOnly, "code"},
	"Process.co":            {hostOnly, ""},
	"Process.onChain":       {hostOnly, "false whenever the loop, and so a barrier or idle hook, has control"},
	"Process.nested":        {hostOnly, ""},
	"Process.handoff":       {hostOnly, ""},
	"Process.inbox":         {hashed, "queued messages, less what MsgSkip names (" + whyPhase + "); Aux by presence"},
	"Process.inboxHead":     {derived, "where the queue starts in inbox"},
	"Process.waitFrom":      {hashed, ""},
	"Process.reply":         {hashed, "presence"},
	"Process.replyBuf":      {excluded, whyInFlight},
	"Process.pendingReq":    {excluded, whyInFlight},
	"Process.sendDeadline":  {hashed, "presence"},
	"Process.sendAttempts":  {hashed, ""},
	"Process.sendRearms":    {hashed, ""},
	"Process.inDeadlines":   {hostOnly, "membership of the plane's deadline index"},
	"Process.quantumUsed":   {excluded, whyPhase},
	"Process.curSender":     {hashed, ""},
	"Process.curNeedsReply": {hashed, ""},
	"Process.window":        {hostOnly, "core's quiescence predicate requires it closed"},
	"Process.store":         {hostOnly, "hashed by core.OS.StateFingerprint, container by container"},
	"Process.step":          {hostOnly, "code"},
	"Process.onKill":        {hostOnly, ""},
	"Process.killed":        {hostOnly, "teardown latch"},
	"Process.ctx":           {hostOnly, ""},

	"ipcPlane.k":         {hostOnly, ""},
	"ipcPlane.cfg":       {hostOnly, "configuration"},
	"ipcPlane.timeout":   {hostOnly, "configuration"},
	"ipcPlane.rng":       {excluded, whyStamp},
	"ipcPlane.stats":     {excluded, whyStats},
	"ipcPlane.pairs":     {hashed, "the records' non-zero fields, field by field"},
	"ipcPlane.held":      {hashed, "count"},
	"ipcPlane.releasing": {hostOnly, "fireDueIPC's scratch, empty between calls"},
	"ipcPlane.deadlines": {derived, "a superset of the live processes with an armed sendDeadline, in endpoint order"},
	"ipcPlane.armed":     {hashed, "count"},
}

// flatFields calls visit for every field of the struct v, descending
// into embedded structs (and embedded struct pointers) so that a field is
// named after the struct it is reached through: "Process.curSender".
func flatFields(root string, v reflect.Value, visit func(name string, field reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		sf, field := v.Type().Field(i), v.Field(i)
		if sf.Anonymous {
			if field.Kind() == reflect.Pointer {
				field = field.Elem()
			}
			flatFields(root, field, visit)
			continue
		}
		visit(root+"."+sf.Name, field)
	}
}

// perturb changes the first scalar it finds in v (a field, or a struct
// of fields) and reports whether it found one.
func perturb(v reflect.Value) bool {
	v = wiretest.Writable(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if perturb(v.Field(i)) {
				return true
			}
		}
		return false
	default:
		return false
	}
	return true
}

func TestFingerprintFieldTable(t *testing.T) {
	// A parked machine with a transport plane, so that all three structs
	// are live: the echo server stands for Process.
	k := barrierMachine(func(k *Kernel) {
		k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: 400_000}, 1)
	})
	if !k.RunToBarrier(testLimit) {
		t.Fatalf("machine ended (%v) before its barrier", k.StepResult())
	}
	defer k.Teardown("test over")
	roots := []struct {
		name string
		v    reflect.Value
	}{
		{"Kernel", reflect.ValueOf(k).Elem()},
		{"Process", reflect.ValueOf(k.procs.get(EpPM)).Elem()},
		{"ipcPlane", reflect.ValueOf(k.ipc).Elem()},
	}

	seen := map[string]bool{}
	for _, root := range roots {
		flatFields(root.name, root.v, func(name string, field reflect.Value) {
			seen[name] = true
			entry, ok := fingerprintFields[name]
			if !ok {
				t.Errorf("%s is not classified: decide whether StateFingerprint hashes it and say so in fingerprintFields", name)
				return
			}
			if entry.class != hashed && entry.class != hostOnly && entry.why == "" {
				t.Errorf("%s is %v without a reason", name, entry.class)
			}
			if entry.class == derived {
				return // may well be read on the way to what it is derived from
			}
			// What the table says is what the hash does: a hashed scalar
			// moves it, nothing else does.
			before := k.StateFingerprint(nil)
			saved := reflect.New(field.Type()).Elem()
			saved.Set(wiretest.Writable(field))
			if !perturb(field) {
				return
			}
			after := k.StateFingerprint(nil)
			wiretest.Writable(field).Set(saved)
			if moved := after != before; moved != (entry.class == hashed) {
				t.Errorf("%s is classified %v, but changing it moved the fingerprint: %v", name, entry.class, moved)
			}
		})
	}
	var stale []string
	for name := range fingerprintFields {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("fingerprintFields classifies fields that no longer exist: %v", stale)
	}

	// Behind pointers the walk above does not follow: the clock and the
	// counters.
	before := k.StateFingerprint(nil)
	k.clock.Advance(12345)
	k.counters.AddID(ctrDispatches, 7)
	if after := k.StateFingerprint(nil); after != before {
		t.Errorf("the clock or a counter moved the fingerprint: %x → %x", before, after)
	}
}

func (c fpClass) String() string {
	return [...]string{"unclassified", "hashed", "excluded", "derived", "host-only"}[c]
}
