package fs

import "repro/internal/kernel"

// MemDevice is a trivial in-memory BlockDevice for unit tests and for
// running the filesystem outside the full OS. It keeps BlockDevice's
// aliasing contract exactly as the driver server does: reads hand out
// the stored prefix, writes adopt the buffer.
type MemDevice struct {
	blocks [][]byte
}

var _ BlockDevice = (*MemDevice)(nil)

// NewMemDevice returns a device with n blocks.
func NewMemDevice(n int32) *MemDevice {
	return &MemDevice{blocks: make([][]byte, n)}
}

// ReadBlock returns block b itself (read-only; nil when never written).
func (d *MemDevice) ReadBlock(b int32) ([]byte, kernel.Errno) {
	if b < 0 || int(b) >= len(d.blocks) {
		return nil, kernel.EIO
	}
	return d.blocks[b], kernel.OK
}

// WriteBlock installs data as block b.
func (d *MemDevice) WriteBlock(b int32, data []byte) kernel.Errno {
	if b < 0 || int(b) >= len(d.blocks) {
		return kernel.EIO
	}
	d.blocks[b] = OwnedBlock(data)
	return kernel.OK
}
