// Package systask implements the system task: the message-level face of
// the privileged kernel calls of the original prototype (sys_fork,
// sys_exec, page-table manipulation). It is substrate, not a
// recoverable OSIRIS component — in the paper this code lives inside
// the microkernel and belongs to the Reliable Computing Base.
//
// A kernel call there is a trap, not a switch to another process, and
// here the calls that never suspend the task (Task.Leaf) cost no host
// switch either: the kernel runs the task's step on the coroutine of the
// process whose yield picks the task (kernel.Stepper). Their simulated cost is unchanged: the
// request's two message hops (its send and its receipt), the reply's
// one, and the task's tick.
package systask

import (
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// stepTicks is the tick every request charges.
const stepTicks = 20

// Run is the system task body. Register it at proto.EpSys with Task as
// its step.
func Run(ctx *kernel.Context) {
	for {
		step(ctx, ctx.Receive())
	}
}

// Task is the system task's step (kernel.ServerConfig.Step).
var Task kernel.Stepper = task{}

type task struct{}

func (task) Step(ctx *kernel.Context, m kernel.Message) { step(ctx, m) }

// Leaf names the requests that never suspend the task: the page-table
// stand-ins, a ping and a terminate. A terminated process parked off the
// chain unwinds on the caller's coroutine, one on the chain when control
// next passes down to it, as on the task's own.
func (task) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	switch m.Type {
	case proto.SysMap, proto.SysUnmap, proto.RSPing, proto.SysTerminate:
		return stepTicks, true
	}
	return 0, false
}

// step serves one request. SysMap and SysUnmap stand for the page-table
// updates of the original kernel: the simulation keeps no page table, so
// they only cost their tick.
func step(ctx *kernel.Context, m kernel.Message) {
	ctx.Tick(stepTicks)
	switch m.Type {
	case proto.SysSpawn:
		body, ok := m.Aux.(kernel.Body)
		if !ok {
			ctx.ReplyErr(m.From, kernel.EINVAL)
			return
		}
		p := ctx.Kernel().SpawnUser(m.Str, body)
		ctx.Reply(m.From, kernel.Message{A: int64(p.Endpoint())})

	case proto.SysTerminate:
		errno := ctx.Kernel().TerminateProcess(kernel.Endpoint(m.A))
		ctx.ReplyErr(m.From, errno)

	case proto.SysReplace:
		body, ok := m.Aux.(kernel.Body)
		if !ok {
			ctx.ReplyErr(m.From, kernel.EINVAL)
			return
		}
		_, err := ctx.Kernel().ReplaceUserProcess(kernel.Endpoint(m.A), m.Str, body)
		if err != nil {
			ctx.ReplyErr(m.From, kernel.ESRCH)
			return
		}
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.SysMap, proto.SysUnmap:
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.RSPing:
		ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})

	default:
		ctx.ReplyErr(m.From, kernel.ENOSYS)
	}
}
