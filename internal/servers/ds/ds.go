// Package ds implements the Data Store server: a persistent key-value
// service used by other components and user programs.
//
// DS publishes an asynchronous, non-state-carrying event notification
// to its subscriber (the Recovery Server) early in every request it
// serves. Under the pessimistic policy this early SEEP closes the
// recovery window almost immediately; under the enhanced policy it is
// classified non-state-modifying and the window stays open — which is
// exactly why DS shows the largest coverage gap between the two
// policies in Table I of the paper.
package ds

import (
	"strings"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
)

// SEEP call sites of the Data Store.
var (
	seepEvent    = seep.Passage{Name: "ds->rs.event", Class: seep.ClassNotify}
	seepSubEvent = seep.Passage{Name: "ds->subscriber.event", Class: seep.ClassNotify}
)

// DS is the Data Store server.
type DS struct {
	kv   *memlog.Map[string, string]
	puts *memlog.Cell[int64]
	gets *memlog.Cell[int64]
	// subs maps a subscriber endpoint to its key prefix; matching
	// changes are published to it (the MINIX DS subscription feature).
	subs *memlog.Map[int64, string]
}

// New binds a Data Store over store (fresh or recovered clone).
func New(store *memlog.Store) *DS {
	return &DS{
		kv:   memlog.NewMap[string, string](store, "ds.kv"),
		puts: memlog.NewCell(store, "ds.puts", int64(0)),
		gets: memlog.NewCell(store, "ds.gets", int64(0)),
		subs: memlog.NewMap[int64, string](store, "ds.subs"),
	}
}

// Name implements the component interface.
func (d *DS) Name() string { return "ds" }

// Ticks Handle charges: every request, a put on top (the most of any
// request), and each subscriber a change is published to.
const (
	handleTicks  = 40
	putTicks     = 30
	publishTicks = 10
)

// Leaf declares every request: Handle never suspends DS. The bound is a
// put's, published to every subscriber (core.Leaf).
func (d *DS) Leaf(*kernel.Message) (sim.Cycles, bool) {
	return handleTicks + putTicks + publishTicks*sim.Cycles(d.subs.Len()), true
}

// Handle processes one request.
func (d *DS) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("ds.handle.entry")
	// Publish an access event to the subscriber early in the loop: the
	// request has not modified anyone's state yet.
	if m.Type != proto.RSPing {
		ctx.SendSeep(seepEvent, kernel.EpRS, kernel.Message{Type: proto.DSEvent, A: int64(m.Type)})
	}
	ctx.Tick(handleTicks)

	switch m.Type {
	case proto.DSPut:
		ctx.Point("ds.put")
		if m.Str == "" {
			ctx.ReplyErr(m.From, kernel.EINVAL)
			return
		}
		d.kv.Set(m.Str, m.Str2)
		d.puts.Set(d.puts.Get() + 1)
		ctx.Tick(putTicks)
		ctx.Point("ds.put.applied")
		d.publish(ctx, m.Str)
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.DSGet:
		ctx.Point("ds.get")
		v, ok := d.kv.Get(m.Str)
		d.gets.Set(d.gets.Get() + 1)
		ctx.Tick(20)
		if !ok {
			ctx.ReplyErr(m.From, kernel.ENOENT)
			return
		}
		ctx.Reply(m.From, kernel.Message{Str: v})

	case proto.DSDelete:
		ctx.Point("ds.delete")
		if _, ok := d.kv.Get(m.Str); !ok {
			ctx.ReplyErr(m.From, kernel.ENOENT)
			return
		}
		d.kv.Delete(m.Str)
		ctx.Tick(20)
		ctx.Point("ds.delete.applied")
		d.publish(ctx, m.Str)
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.DSSubscribe:
		ctx.Point("ds.subscribe")
		d.subs.Set(int64(m.From), m.Str)
		ctx.Tick(15)
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.DSUnsubscribe:
		ctx.Point("ds.unsubscribe")
		if _, ok := d.subs.Get(int64(m.From)); !ok {
			ctx.ReplyErr(m.From, kernel.ENOENT)
			return
		}
		d.subs.Delete(int64(m.From))
		ctx.Tick(10)
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.DSCleanup:
		ctx.Point("ds.cleanup")
		d.subs.Delete(m.A)
		ctx.Tick(10)
		ctx.ReplyErr(m.From, kernel.OK)

	case proto.DSKeys:
		ctx.Point("ds.keys")
		ctx.Tick(10)
		ctx.Reply(m.From, kernel.Message{A: int64(d.kv.Len())})

	case proto.RSPing:
		ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})

	default:
		if m.NeedsReply {
			ctx.ReplyErr(m.From, kernel.ENOSYS)
		}
	}
}

// publish sends a change event for key to every subscriber whose prefix
// matches. Events are non-state-carrying notifications: they never
// close the enhanced recovery window.
func (d *DS) publish(ctx *kernel.Context, key string) {
	d.subs.ForEach(func(ep int64, prefix string) bool {
		if strings.HasPrefix(key, prefix) {
			ctx.SendSeep(seepSubEvent, kernel.Endpoint(ep),
				kernel.Message{Type: proto.DSEvent, Str: key})
			ctx.Tick(publishTicks)
		}
		return true
	})
}

// AuditSubscribers returns the endpoints holding a live subscription,
// in table order. The consistency auditor checks that none of them
// belongs to a dead process.
func (d *DS) AuditSubscribers() []int64 {
	var out []int64
	d.subs.ForEach(func(ep int64, _ string) bool {
		out = append(out, ep)
		return true
	})
	return out
}
