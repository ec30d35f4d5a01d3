package memlog

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// This file is the on-disk image support for Store: a deterministic
// binary encoding of a quiescent store (empty undo log) that is exact
// enough for a decoded store to behave bit-identically to a ForkClone
// of the original — container contents and insertion order, the
// per-container size bookkeeping, the checkpoint position and the
// high-water marks all round-trip.
//
// Both directions go through one record, storeImage, with one field list
// (code): encoding fills the record from the live store and writes it,
// decoding reads it and parks it on a *pending* Store. Decoding is
// two-phase, because container element types are known only to the
// owning component's constructor (NewCell[T] etc.):
//
//  1. CodeImage parses the stream into a pending Store: the
//     record, with raw per-container payloads and no live containers yet.
//  2. The component factory runs against the pending store exactly as it
//     runs against a recovered clone; each NewCell/NewMap/NewSlice call
//     finds its raw payload and materializes it with the correct type.
//     FinishDecode then verifies the factory registered exactly the
//     recorded containers, applies the recorded bookkeeping, and
//     surfaces any type mismatch or leftover payload as an error — so a
//     stale or corrupt image degrades into a failed decode instead of a
//     panic inside a server constructor.
//
// The record is immutable once decoded: ForkClone on a still-pending
// store shares it, so one decoded image can serve many concurrent forks
// the way an in-memory Snapshot does.

// contImage is one container of a store image: its encoded contents and
// the persistent part of its bookkeeping. The record of a live store
// (image) names the container instead, which writes its contents into the
// stream itself: raw is what a decode parks until the factory says what
// type they are.
type contImage struct {
	name string
	raw  []byte
	live container
	meta contMeta
}

// storeImage is the persistent state of a quiescent store.
type storeImage struct {
	storeIdent
	storeCkpt
	conts     []contImage // in registration order
	sizeDirty []string    // container names, in list order
}

// code is the store image's one field list. Format v1 keeps five slots
// whose fields are gone (retire): each holds one value in every image,
// the one every store not under FullCopy always wrote there.
func (img *storeImage) code(c *wire.Codec) {
	c.Str(&img.label)
	wire.Int(c, &img.mode)
	c.Bool(&img.logging)
	wire.Int(c, &img.generation)
	img.retire(c, 0, "checkpoint rule flag") // a bool slot: false
	wire.Int(c, &img.maxLogLen)
	wire.Int(c, &img.maxLogBytes)
	wire.Slice(c, &img.conts, func(c *wire.Codec, ci *contImage) {
		c.Str(&ci.name)
		if ci.live != nil {
			c.BlobOf(ci.live.codeState)
		} else {
			c.Blob(&ci.raw)
		}
		img.retire(c, 1, "container write epoch")
		wire.Int(c, &ci.meta.size)
		c.Bool(&ci.meta.sizeStale)
	})
	if c.Decoding() {
		seen := make(map[string]bool, len(img.conts))
		for _, ci := range img.conts {
			if seen[ci.name] {
				c.Fail(fmt.Errorf("memlog: image of store %q repeats container %q", img.label, ci.name))
			}
			seen[ci.name] = true
		}
	}
	img.retire(c, 1, "checkpoint epoch")
	// The retired dirty set: every container, in registration order.
	if n := c.Len(len(img.conts)); n != len(img.conts) {
		c.Fail(fmt.Errorf("memlog: image of store %q lists %d containers in the retired dirty set, not its %d", img.label, n, len(img.conts)))
	} else {
		for i := range img.conts {
			name := img.conts[i].name
			if c.Str(&name); name != img.conts[i].name {
				c.Fail(fmt.Errorf("memlog: image of store %q lists %q in the retired dirty set where container %q stands", img.label, name, img.conts[i].name))
			}
		}
	}
	wire.Slice(c, &img.sizeDirty, (*wire.Codec).Str)
	wire.Int(c, &img.baseBytes)
	img.retire(c, 0, "snapshot flag") // a bool slot that once announced a nested FullCopy image
	c.Bool(&img.restorable)
}

// retire codes a slot of format v1 whose field is gone: encoding writes
// want, and a decode refuses any other value. A bool slot's false is the
// byte of uvarint 0.
func (img *storeImage) retire(c *wire.Codec, want uint64, slot string) {
	got := want
	if c.Uvarint(&got); got != want {
		c.Fail(fmt.Errorf("memlog: image of store %q holds %d in the retired %s slot, not %d", img.label, got, slot, want))
	}
}

// find returns the record of the container called name, or nil. A scan:
// a store has five to nine containers, and materializePending asks once
// for each.
func (img *storeImage) find(name string) *contImage {
	for i := range img.conts {
		if img.conts[i].name == name {
			return &img.conts[i]
		}
	}
	return nil
}

// image builds the store's record. The store must be quiescent: an undo
// log in flight cannot be represented (checkpoints are log positions,
// and a log references live container identity). The record of a store
// still pending decode is the one it was decoded from.
func (s *Store) image() (*storeImage, error) {
	if len(s.log) > 0 {
		return nil, fmt.Errorf("memlog: store %q has %d undo records in flight; images require a quiescent store", s.label, len(s.log))
	}
	if s.pending != nil {
		// Still pending: the decoded record is the image, byte for byte.
		return s.pending, nil
	}
	img := &storeImage{
		storeIdent: s.storeIdent,
		storeCkpt:  s.storeCkpt,
		conts:      make([]contImage, len(s.order)),
		sizeDirty:  make([]string, len(s.sizeDirty)),
	}
	for i, c := range s.sizeDirty {
		img.sizeDirty[i] = c.name()
	}
	for i, name := range s.order {
		cont := s.containers[name]
		img.conts[i] = contImage{name: name, live: cont, meta: *cont.meta()}
	}
	return img, nil
}

// CodeImage walks a store image through c. Encoding writes the image of
// *s; decoding sets *s to a pending Store, against which the caller must
// run the owning component's factory (materializing every container) and
// then call FinishDecode.
func CodeImage(c *wire.Codec, s **Store) {
	if c.Decoding() {
		img := new(storeImage)
		if img.code(c); c.Err() == nil {
			*s = newPending(img)
		}
		return
	}
	img, err := (*s).image()
	if err != nil {
		c.Fail(err)
		return
	}
	img.code(c)
}

// newPending returns a pending store over the decoded record img, which
// it shares.
func newPending(img *storeImage) *Store {
	s := NewStore(img.label, img.mode)
	s.storeIdent, s.storeCkpt = img.storeIdent, img.storeCkpt
	s.pending = img
	return s
}

// materializePending decodes the payload recorded for c's name into c,
// if the store is pending and has one. Called by NewCell/NewMap/NewSlice
// under their registration path.
func materializePending(s *Store, c container) {
	if s.pending == nil {
		return
	}
	name := c.name()
	if ci := s.pending.find(name); ci != nil {
		d := wire.NewDecoder(ci.raw)
		w := wire.Decoding(d)
		c.codeState(w)
		err := w.Err()
		if err == nil && d.Remaining() != 0 {
			err = fmt.Errorf("payload has %d trailing bytes", d.Remaining())
		}
		if err != nil && s.pendingErr == nil {
			s.pendingErr = fmt.Errorf("memlog: store %q container %q: %w", s.label, name, err)
		}
	}
}

// FinishDecode completes the two-phase image decode: the factory must
// have registered exactly the recorded containers, in the recorded
// order. It applies the recorded bookkeeping (checkpoint position, cached
// sizes) over whatever registration left behind and reports any decode
// failure accumulated during materialization. It refuses size caches no
// store can hold: a negative size, sizes that do not sum to the base
// bytes, or a stale list other than the stale containers, each once. It
// is a no-op on stores that were not decoded from an image.
func (s *Store) FinishDecode() error {
	img := s.pending
	if img == nil {
		return nil
	}
	if s.pendingErr != nil {
		return s.pendingErr
	}
	if len(s.order) != len(img.conts) {
		return fmt.Errorf("memlog: store %q factory registered %d containers, image records %d", s.label, len(s.order), len(img.conts))
	}
	sum, stale := 0, 0
	for i, ci := range img.conts {
		if s.order[i] != ci.name {
			return fmt.Errorf("memlog: store %q registration order diverges from image at %d: %q vs %q", s.label, i, s.order[i], ci.name)
		}
		// Sizes are not negative, so a sum that goes negative overflowed.
		if sum += ci.meta.size; ci.meta.size < 0 || sum < 0 {
			return fmt.Errorf("memlog: store %q image gives container %q the size %d", s.label, ci.name, ci.meta.size)
		}
		if ci.meta.sizeStale {
			stale++
		}
		// The image gives the size bookkeeping; the write count goes on.
		m := s.containers[ci.name].meta()
		*m = contMeta{size: ci.meta.size, sizeStale: ci.meta.sizeStale, writes: m.writes}
	}
	if sum != img.baseBytes {
		return fmt.Errorf("memlog: store %q image's container sizes sum to %d, its base bytes are %d", s.label, sum, img.baseBytes)
	}
	if len(img.sizeDirty) != stale {
		return fmt.Errorf("memlog: store %q image lists %d stale sizes, %d containers are stale", s.label, len(img.sizeDirty), stale)
	}
	s.sizeDirty = s.sizeDirty[:0]
	for _, name := range img.sizeDirty {
		c := s.containers[name]
		if c == nil || !c.meta().sizeStale || slices.Contains(s.sizeDirty, c) {
			return fmt.Errorf("memlog: store %q image lists %q among its stale sizes", s.label, name)
		}
		s.sizeDirty = append(s.sizeDirty, c)
	}
	s.storeIdent, s.storeCkpt = img.storeIdent, img.storeCkpt
	s.pending = nil
	return nil
}
