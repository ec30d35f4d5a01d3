package memlog

import (
	"fmt"

	"repro/internal/wire"
)

// This file is the on-disk image support for Store: a deterministic
// binary encoding of a quiescent store (empty undo log) that is exact
// enough for a decoded store to behave bit-identically to a ForkClone
// of the original — container contents and insertion order, the
// per-container dirty/size bookkeeping, the checkpoint epoch and the
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
	conts            []contImage // in registration order
	dirty, sizeDirty []string    // container names, in list order
}

// code is the store image's one field list.
func (img *storeImage) code(c *wire.Codec) {
	c.Str(&img.label)
	wire.Int(c, &img.mode)
	c.Bool(&img.logging)
	wire.Int(c, &img.generation)
	c.Bool(&img.legacyCheckpoint)
	wire.Int(c, &img.maxLogLen)
	wire.Int(c, &img.maxLogBytes)
	wire.Slice(c, &img.conts, func(c *wire.Codec, ci *contImage) {
		c.Str(&ci.name)
		if ci.live != nil {
			c.BlobOf(ci.live.codeState)
		} else {
			c.Blob(&ci.raw)
		}
		c.Uvarint(&ci.meta.writeGen)
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
	c.Uvarint(&img.chkGen)
	wire.Slice(c, &img.dirty, (*wire.Codec).Str)
	wire.Slice(c, &img.sizeDirty, (*wire.Codec).Str)
	wire.Int(c, &img.baseBytes)
	// Format v1 has a flag here that every image now holds false: it once
	// announced a nested FullCopy checkpoint image.
	var retired bool
	if c.Bool(&retired); retired {
		c.Fail(fmt.Errorf("memlog: store %q image sets the retired snapshot flag", img.label))
	}
	c.Bool(&img.restorable)
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
		dirty:      containerNames(s.dirty),
		sizeDirty:  containerNames(s.sizeDirty),
	}
	for i, name := range s.order {
		cont := s.containers[name]
		img.conts[i] = contImage{name: name, live: cont, meta: *cont.meta()}
	}
	return img, nil
}

func containerNames(list []container) []string {
	names := make([]string, len(list))
	for i, c := range list {
		names[i] = c.name()
	}
	return names
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
// order. It applies the recorded bookkeeping (checkpoint position, dirty
// sets, cached sizes) over whatever registration left
// behind and reports any decode failure accumulated during
// materialization. It is a no-op on stores that were not decoded from an
// image.
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
	for i, ci := range img.conts {
		if s.order[i] != ci.name {
			return fmt.Errorf("memlog: store %q registration order diverges from image at %d: %q vs %q", s.label, i, s.order[i], ci.name)
		}
		*s.containers[ci.name].meta() = ci.meta
	}
	s.storeIdent, s.storeCkpt = img.storeIdent, img.storeCkpt
	var err error
	if s.dirty, err = s.named(s.dirty[:0], img.dirty); err != nil {
		return err
	}
	if s.sizeDirty, err = s.named(s.sizeDirty[:0], img.sizeDirty); err != nil {
		return err
	}
	s.pending = nil
	return nil
}

// named appends the containers called names to list.
func (s *Store) named(list []container, names []string) ([]container, error) {
	for _, name := range names {
		c := s.containers[name]
		if c == nil {
			return nil, fmt.Errorf("memlog: store %q image lists unknown container %q", s.label, name)
		}
		list = append(list, c)
	}
	return list, nil
}
