package core

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
)

// WatchShutdowns installs a crash handler around the recovery engine's
// that calls seen after every crash the engine answers with a controlled
// shutdown, with the machine as the engine left it.
func (o *OS) WatchShutdowns(seen func(info kernel.CrashInfo)) {
	o.k.SetCrashHandler(func(info kernel.CrashInfo) error {
		before := o.postMortem
		err := o.handleCrash(info)
		if o.postMortem != before {
			seen(info)
		}
		return err
	})
}

// EagerDump is the post-mortem report as it was made before it was made
// on demand: formatted at the shutdown, each store sized there.
func (o *OS) EagerDump(info kernel.CrashInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "controlled shutdown at t=%d\n", o.k.Now())
	fmt.Fprintf(&b, "trigger: %s crashed (panic: %v) while serving endpoint %d (replyable=%v)\n",
		info.Name, info.PanicValue, info.CurSender, info.CurNeedsReply)
	fmt.Fprintf(&b, "%-8s %-8s %-10s %-12s %-10s %s\n",
		"server", "policy", "window", "base-bytes", "log-len", "crashes")
	for _, ep := range o.order {
		s := o.slots[ep]
		state := "closed"
		if s.window.Open() {
			state = "open"
		}
		if s.quarantined {
			state = "quarantined"
		}
		fmt.Fprintf(&b, "%-8s %-8s %-10s %-12d %-10d %d\n",
			s.name, s.policy, state, s.store.BaseBytes(), s.store.LogLen(), s.recoveries)
	}
	return b.String()
}
