// Package systask implements the system task: the message-level face of
// the privileged kernel calls of the original prototype (sys_fork,
// sys_exec, page-table manipulation). It is substrate, not a
// recoverable OSIRIS component — in the paper this code lives inside
// the microkernel and belongs to the Reliable Computing Base.
package systask

import (
	"repro/internal/kernel"
	"repro/internal/proto"
)

// Run is the system task body. Register it at proto.EpSys. SysMap and
// SysUnmap stand for the page-table updates of the original kernel: the
// simulation keeps no page table, so they only cost their tick.
func Run(ctx *kernel.Context) {
	for {
		m := ctx.Receive()
		ctx.Tick(20)
		switch m.Type {
		case proto.SysSpawn:
			body, ok := m.Aux.(kernel.Body)
			if !ok {
				ctx.ReplyErr(m.From, kernel.EINVAL)
				continue
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
				continue
			}
			_, err := ctx.Kernel().ReplaceUserProcess(kernel.Endpoint(m.A), m.Str, body)
			if err != nil {
				ctx.ReplyErr(m.From, kernel.ESRCH)
				continue
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
}
