package boot

// Decomposition of Snapshot for the on-disk image format
// (internal/image). The program registry cannot be serialized — it
// holds function values — so an on-disk image stores only the registry
// program names; the reader supplies an equivalent registry built from
// the same code and the image layer validates the name sets match.

import (
	"repro/internal/core"
	"repro/internal/servers/driver"
	"repro/internal/usr"
)

// Parts exposes the snapshot's serializable pieces: the captured
// machine image, the frozen disk, and the boot options the capture ran
// under.
func (s *Snapshot) Parts() (*core.OSImage, *driver.Image, Options) {
	return s.img, s.disk, s.opts
}

// Registry returns the program registry the captured machine booted
// with.
func (s *Snapshot) Registry() *usr.Registry { return s.reg }

// NewSnapshotFromParts reassembles a Snapshot from decoded parts and a
// caller-supplied program registry. The registry must register the same
// programs the captured machine booted with (the image layer checks the
// name sets); Fork then resumes decoded machines exactly like in-memory
// ones.
func NewSnapshotFromParts(img *core.OSImage, disk *driver.Image, reg *usr.Registry, opts Options) *Snapshot {
	return &Snapshot{img: img, disk: disk, reg: reg, opts: opts}
}
