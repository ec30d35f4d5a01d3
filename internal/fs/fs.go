// Package fs implements the in-memory filesystem substrate used by the
// simulated VFS server: an inode table, hierarchical directories and a
// free-block allocator, all held in memlog containers so that VFS crash
// recovery rolls metadata back consistently.
//
// File data lives on a block device behind the BlockDevice interface.
// In the running OS that interface is implemented by SEEP-wrapped calls
// to the driver server — device writes are external side effects that
// close the recovery window, exactly as in the paper's model.
package fs

import (
	"strings"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/wire"
)

// Geometry of the simulated filesystem.
const (
	// BlockSize is the data block size in bytes.
	BlockSize = 4096
	// NDirect is the number of direct block slots per inode; the
	// maximum file size is NDirect*BlockSize (256 KiB).
	NDirect = 64
	// RootIno is the inode number of the root directory.
	RootIno int64 = 1
)

// FileType distinguishes inode kinds.
type FileType int32

const (
	// TypeFile is a regular file.
	TypeFile FileType = iota + 1
	// TypeDir is a directory.
	TypeDir
)

// Inode is the on-"disk" metadata of one file system object. Values are
// treated as immutable: mutations replace the whole struct in the inode
// map so the undo log captures exact old versions.
//
// Blocks is the inode's block table held as its prefix: slot i holds the
// data block of file block i, 0 a hole, and the table ends at the last
// allocated slot — a slot past its end is a hole too, and a file with no
// block has a nil table. Like a device block (BlockDevice), a table is
// never written in place: the undo log, a snapshot and every fork of it
// share it with the live inode, so a change installs a fresh slice, and
// its capacity is clipped so that nothing appends into a shared array.
// The fields are ordered to pack the struct into 48 bytes, which a Go map
// stores inline (a value over 128 bytes it stores as a pointer to a heap
// record of its own, one malloc an insert and an inode a map copy).
type Inode struct {
	Ino    int64
	Size   int64
	Blocks []int32 // the table's prefix, up to the last allocated slot
	Type   FileType
	Nlink  int32
}

// Code is the inode's field list (wire.Coder): the store image and the
// fingerprint of fs.inodes walk it instead of reflecting over the struct.
// It codes the image format v1 layout, not the declaration order: Ino,
// Type, Size, Nlink, then all NDirect block slots, the zeros past the
// table's end included (wire.IntsPrefix), so the bytes and the hash are
// those of a full table.
func (n *Inode) Code(c *wire.Codec) {
	wire.Int(c, &n.Ino)
	wire.Int(c, &n.Type)
	wire.Int(c, &n.Size)
	wire.Int(c, &n.Nlink)
	wire.IntsPrefix(c, &n.Blocks, NDirect)
}

// BlockDevice is the data-block backend. Implementations may have side
// effects outside the owning server's recoverable state (a real device).
//
// A block is held as its written prefix: the slice a device stores and
// hands out may be shorter than BlockSize, and every byte past its end
// reads as zero. A block never written is nil, a written one is not —
// even when its prefix is empty — so "written" stays distinct from
// "never written" (the device fingerprint and the disk image tell the
// two apart). A 100-byte write to a fresh block thus costs a 100-byte
// buffer, not a zero-padded BlockSize one.
//
// Aliasing contract. A device never changes a block in place: a write
// installs a new buffer. That is what lets a snapshot, every fork of it
// and every earlier reader share block contents without copying — and
// it binds both sides of the interface:
//
//   - the slice ReadBlock returns is the device's own block and is
//     READ-ONLY: a caller that wants to change it copies it first.
//     WriteAt's partial-block read-modify-write is the one such caller.
//     ReadAt may lend the block further up: a read inside one block's
//     written prefix returns a slice of the block itself, its capacity
//     clipped, and so does the VFS's reply (kernel.Message);
//   - WriteBlock TAKES OWNERSHIP of data: the caller must not touch the
//     buffer afterwards. A device keeps the buffer as the block itself
//     (OwnedBlock).
type BlockDevice interface {
	// ReadBlock returns the written prefix of block b (at most BlockSize
	// bytes, read-only; nil when b was never written).
	ReadBlock(b int32) ([]byte, kernel.Errno)
	// WriteBlock overwrites block b with data, which it owns from here on;
	// the bytes past len(data) read as zero.
	WriteBlock(b int32, data []byte) kernel.Errno
}

// OwnedBlock turns a buffer handed to WriteBlock into the block a device
// stores: the buffer itself, cut to at most BlockSize bytes and with its
// capacity clipped, so nothing appends past the block into a buffer it
// does not own. A nil buffer becomes an empty block, which is written.
func OwnedBlock(data []byte) []byte {
	if data == nil {
		return []byte{}
	}
	n := min(len(data), BlockSize)
	return data[:n:n]
}

// FS is a mounted filesystem with all metadata in the given memlog
// store. Data-block I/O goes through the BlockDevice passed to each
// ReadAt/WriteAt call: the multithreaded VFS routes I/O per worker
// thread, so the device handle is per-operation, not per-mount.
type FS struct {
	blocks int32

	inodes  *memlog.Map[int64, Inode]
	dirents *memlog.Map[string, int64]
	nextIno *memlog.Cell[int64]
	// freeBlocks is a stack of free block numbers; freeTop is the
	// number of valid entries (the stack is never shrunk so rollback
	// stays cheap).
	freeBlocks *memlog.Slice[int32]
	freeTop    *memlog.Cell[int]
}

// New mounts a filesystem whose metadata lives in store, over a device
// with the given number of blocks. On a fresh store it formats: all
// blocks free, an empty root directory. On a cloned store (recovery)
// the existing metadata is reused untouched.
func New(store *memlog.Store, blocks int32) *FS {
	f := &FS{
		blocks:     blocks,
		inodes:     memlog.NewMap[int64, Inode](store, "fs.inodes"),
		dirents:    memlog.NewMap[string, int64](store, "fs.dirents"),
		nextIno:    memlog.NewCell(store, "fs.next_ino", RootIno+1),
		freeBlocks: memlog.NewSlice[int32](store, "fs.free_blocks"),
		freeTop:    memlog.NewCell(store, "fs.free_top", 0),
	}
	if _, ok := f.inodes.Get(RootIno); !ok {
		f.format()
	}
	return f
}

// format initializes an empty filesystem.
func (f *FS) format() {
	// Block 0 is reserved so that a zero block slot means "unallocated".
	for b := f.blocks - 1; b >= 1; b-- {
		f.freeBlocks.Append(b)
		f.freeTop.Set(f.freeTop.Get() + 1)
	}
	f.inodes.Set(RootIno, Inode{Ino: RootIno, Type: TypeDir, Nlink: 2})
}

// direntKey builds the directory-entry map key for name within dir.
func direntKey(dir int64, name string) string {
	return itoa(dir) + "/" + name
}

// itoa is a minimal allocation-light integer formatter.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// splitPath normalizes an absolute path into components: "" and "."
// components are dropped and ".." drops the one before it, lexically.
func splitPath(path string) ([]string, kernel.Errno) {
	if len(path) == 0 || path[0] != '/' {
		return nil, kernel.EINVAL
	}
	raw := strings.Split(path, "/")
	comps := make([]string, 0, len(raw))
	for _, c := range raw {
		switch c {
		case "", ".":
			continue
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			comps = append(comps, c)
		}
	}
	return comps, kernel.OK
}

// plainPath reports whether path is absolute and every component of it
// is a name — none is "", "." or ".." — so that its components are
// exactly the pieces between its slashes. The root "/" is not plain.
func plainPath(path string) bool {
	if len(path) == 0 || path[0] != '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		switch path[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// walkPath calls step on each component of path as splitPath normalizes
// it, last telling the final one, and stops at the first errno step
// returns. A plain path is walked in place, without splitPath's slices.
func walkPath(path string, step func(c string, last bool) kernel.Errno) kernel.Errno {
	if !plainPath(path) {
		comps, errno := splitPath(path)
		for i, c := range comps {
			if errno := step(c, i == len(comps)-1); errno != kernel.OK {
				return errno
			}
		}
		return errno
	}
	for rest := path[1:]; ; {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return step(rest, true)
		}
		if errno := step(rest[:i], false); errno != kernel.OK {
			return errno
		}
		rest = rest[i+1:]
	}
}

// Lookup resolves an absolute path to an inode number.
func (f *FS) Lookup(path string) (int64, kernel.Errno) {
	cur := RootIno
	errno := walkPath(path, func(c string, _ bool) kernel.Errno {
		ino, ok := f.inodes.Get(cur)
		if !ok {
			return kernel.EIO
		}
		if ino.Type != TypeDir {
			return kernel.ENOTDIR
		}
		next, ok := f.dirents.Get(direntKey(cur, c))
		if !ok {
			return kernel.ENOENT
		}
		cur = next
		return kernel.OK
	})
	if errno != kernel.OK {
		return 0, errno
	}
	return cur, kernel.OK
}

// lookupParent resolves the directory containing path's last component.
func (f *FS) lookupParent(path string) (dir int64, name string, errno kernel.Errno) {
	cur := RootIno
	errno = walkPath(path, func(c string, last bool) kernel.Errno {
		if last {
			name = c
			return kernel.OK
		}
		next, ok := f.dirents.Get(direntKey(cur, c))
		if !ok {
			return kernel.ENOENT
		}
		ino, _ := f.inodes.Get(next)
		if ino.Type != TypeDir {
			return kernel.ENOTDIR
		}
		cur = next
		return kernel.OK
	})
	switch {
	case errno != kernel.OK:
		return 0, "", errno
	case name == "":
		return 0, "", kernel.EINVAL // the root itself has no parent entry
	}
	return cur, name, kernel.OK
}

// Stat returns the inode metadata for ino.
func (f *FS) Stat(ino int64) (Inode, kernel.Errno) {
	n, ok := f.inodes.Get(ino)
	if !ok {
		return Inode{}, kernel.ENOENT
	}
	return n, kernel.OK
}

// Create makes a new regular file at path. It fails with EEXIST if the
// name is taken and ENOENT if the parent directory is missing.
func (f *FS) Create(path string) (int64, kernel.Errno) {
	return f.createNode(path, TypeFile)
}

// Mkdir makes a new directory at path.
func (f *FS) Mkdir(path string) (int64, kernel.Errno) {
	return f.createNode(path, TypeDir)
}

func (f *FS) createNode(path string, typ FileType) (int64, kernel.Errno) {
	dir, name, errno := f.lookupParent(path)
	if errno != kernel.OK {
		return 0, errno
	}
	key := direntKey(dir, name)
	if _, exists := f.dirents.Get(key); exists {
		return 0, kernel.EEXIST
	}
	ino := f.nextIno.Get()
	f.nextIno.Set(ino + 1)
	nlink := int32(1)
	if typ == TypeDir {
		nlink = 2
	}
	f.inodes.Set(ino, Inode{Ino: ino, Type: typ, Nlink: nlink})
	f.dirents.Set(key, ino)
	if typ == TypeDir {
		parent, _ := f.inodes.Get(dir)
		parent.Nlink++
		f.inodes.Set(dir, parent)
	}
	return ino, kernel.OK
}

// Unlink removes the file at path. Directories must be empty.
func (f *FS) Unlink(path string) kernel.Errno {
	dir, name, errno := f.lookupParent(path)
	if errno != kernel.OK {
		return errno
	}
	key := direntKey(dir, name)
	ino, ok := f.dirents.Get(key)
	if !ok {
		return kernel.ENOENT
	}
	node, _ := f.inodes.Get(ino)
	if node.Type == TypeDir {
		if f.dirEntryCount(ino) > 0 {
			return kernel.EINVAL
		}
		parent, _ := f.inodes.Get(dir)
		parent.Nlink--
		f.inodes.Set(dir, parent)
	}
	f.dirents.Delete(key)
	node.Nlink--
	if node.Nlink <= 0 || (node.Type == TypeDir && node.Nlink <= 1) {
		f.freeInodeBlocks(&node)
		f.inodes.Delete(ino)
	} else {
		f.inodes.Set(ino, node)
	}
	return kernel.OK
}

// dirEntryCount counts entries in directory ino.
func (f *FS) dirEntryCount(ino int64) int {
	prefix := itoa(ino) + "/"
	count := 0
	f.dirents.ForEach(func(k string, _ int64) bool {
		if strings.HasPrefix(k, prefix) {
			count++
		}
		return true
	})
	return count
}

// ReadDir lists the entry names of the directory at path.
func (f *FS) ReadDir(path string) ([]string, kernel.Errno) {
	ino, errno := f.Lookup(path)
	if errno != kernel.OK {
		return nil, errno
	}
	node, _ := f.inodes.Get(ino)
	if node.Type != TypeDir {
		return nil, kernel.ENOTDIR
	}
	prefix := itoa(ino) + "/"
	var names []string
	f.dirents.ForEach(func(k string, _ int64) bool {
		if strings.HasPrefix(k, prefix) {
			names = append(names, k[len(prefix):])
		}
		return true
	})
	return names, kernel.OK
}

// Rename moves the entry at oldPath to newPath, replacing any existing
// regular file there (POSIX rename semantics, directories must not be
// replaced).
func (f *FS) Rename(oldPath, newPath string) kernel.Errno {
	oldDir, oldName, errno := f.lookupParent(oldPath)
	if errno != kernel.OK {
		return errno
	}
	oldKey := direntKey(oldDir, oldName)
	ino, ok := f.dirents.Get(oldKey)
	if !ok {
		return kernel.ENOENT
	}
	newDir, newName, errno := f.lookupParent(newPath)
	if errno != kernel.OK {
		return errno
	}
	newKey := direntKey(newDir, newName)
	if newKey == oldKey {
		return kernel.OK
	}
	if existing, taken := f.dirents.Get(newKey); taken {
		node, _ := f.inodes.Get(existing)
		if node.Type == TypeDir {
			return kernel.EISDIR
		}
		if errno := f.Unlink(newPath); errno != kernel.OK {
			return errno
		}
	}
	moved, _ := f.inodes.Get(ino)
	f.dirents.Delete(oldKey)
	f.dirents.Set(newKey, ino)
	if moved.Type == TypeDir && oldDir != newDir {
		// Directory moved between parents: fix the parents' link counts.
		op, _ := f.inodes.Get(oldDir)
		op.Nlink--
		f.inodes.Set(oldDir, op)
		np, _ := f.inodes.Get(newDir)
		np.Nlink++
		f.inodes.Set(newDir, np)
	}
	return kernel.OK
}

// allocBlock pops a free block, or 0 with ENOSPC.
func (f *FS) allocBlock() (int32, kernel.Errno) {
	top := f.freeTop.Get()
	if top == 0 {
		return 0, kernel.ENOSPC
	}
	b := f.freeBlocks.Get(top - 1)
	f.freeTop.Set(top - 1)
	return b, kernel.OK
}

// freeBlock pushes a block back on the free stack.
func (f *FS) freeBlock(b int32) {
	top := f.freeTop.Get()
	if top < f.freeBlocks.Len() {
		f.freeBlocks.Set(top, b)
	} else {
		f.freeBlocks.Append(b)
	}
	f.freeTop.Set(top + 1)
}

// freeInodeBlocks releases every data block of node.
func (f *FS) freeInodeBlocks(node *Inode) {
	for _, b := range node.Blocks {
		if b != 0 {
			f.freeBlock(b)
		}
	}
	node.Blocks, node.Size = nil, 0
}

// FreeBlockCount reports how many blocks are free (accounting checks).
func (f *FS) FreeBlockCount() int { return f.freeTop.Get() }

// Truncate discards the contents of the file at ino.
func (f *FS) Truncate(ino int64) kernel.Errno {
	node, ok := f.inodes.Get(ino)
	if !ok {
		return kernel.ENOENT
	}
	if node.Type != TypeFile {
		return kernel.EISDIR
	}
	f.freeInodeBlocks(&node)
	f.inodes.Set(ino, node)
	return kernel.OK
}

// ReadAt reads up to n bytes at offset off from the file at ino,
// fetching data blocks through dev, one ReadBlock a block in file order.
// The result is READ-ONLY: a read that lies inside one block and inside
// that block's written prefix returns the device's own bytes, its
// capacity clipped to its length (BlockDevice), and allocates nothing.
// Every other read — a hole, a read past a short prefix, one that crosses
// a block — returns a fresh copy.
func (f *FS) ReadAt(dev BlockDevice, ino int64, off int64, n int) ([]byte, kernel.Errno) {
	node, ok := f.inodes.Get(ino)
	if !ok {
		return nil, kernel.ENOENT
	}
	if node.Type != TypeFile {
		return nil, kernel.EISDIR
	}
	if off < 0 {
		return nil, kernel.EINVAL
	}
	if off >= node.Size || n <= 0 {
		return nil, kernel.OK // EOF
	}
	if int64(n) > node.Size-off {
		n = int(node.Size - off)
	}
	var out []byte
	for n > 0 {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		chunk := BlockSize - bo
		if chunk > n {
			chunk = n
		}
		var data []byte // a sparse hole reads as zeros, like a short prefix's tail
		if bi < len(node.Blocks) && node.Blocks[bi] != 0 {
			var errno kernel.Errno
			if data, errno = dev.ReadBlock(node.Blocks[bi]); errno != kernel.OK {
				return nil, errno
			}
		}
		if out == nil {
			if chunk == n && bo+n <= len(data) {
				return data[bo : bo+n : bo+n], kernel.OK // lent, not copied
			}
			out = make([]byte, 0, n)
		}
		got := data[min(bo, len(data)):min(bo+chunk, len(data))]
		out = append(out, got...)
		out = append(out, make([]byte, chunk-len(got))...)
		off += int64(chunk)
		n -= chunk
	}
	return out, kernel.OK
}

// WriteAt writes data at offset off in the file at ino through dev,
// growing the file as needed. It returns the number of bytes written.
// A zero-length write leaves the file as it is, past its end too.
func (f *FS) WriteAt(dev BlockDevice, ino int64, off int64, data []byte) (int, kernel.Errno) {
	node, ok := f.inodes.Get(ino)
	if !ok {
		return 0, kernel.ENOENT
	}
	if node.Type != TypeFile {
		return 0, kernel.EISDIR
	}
	if off < 0 {
		return 0, kernel.EINVAL
	}
	end := off + int64(len(data))
	if end > int64(NDirect*BlockSize) {
		return 0, kernel.ENOSPC
	}
	// changed reports that node differs from the stored inode. Until the
	// size is set below, that means node.Blocks is this call's own copy of
	// the table, which it may write.
	changed := false
	// fresh reports that the chunk in hand took a block off the free
	// stack.
	written, fresh := 0, false
	var errno kernel.Errno
	for written < len(data) {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(data)-written {
			chunk = len(data) - written
		}
		fresh = false
		if bi >= len(node.Blocks) || node.Blocks[bi] == 0 {
			var b int32
			if b, errno = f.allocBlock(); errno != kernel.OK {
				break
			}
			if !changed {
				// The stored table is shared (Inode): copy it once, grown to
				// the write's last block.
				table := make([]int32, max(len(node.Blocks), int((end-1)/BlockSize)+1))
				copy(table, node.Blocks)
				node.Blocks, changed = table, true
			}
			node.Blocks[bi], fresh = b, true
		}
		var existing []byte
		if bo != 0 || chunk != BlockSize {
			// Read-modify-write of a partial block: on a copy, the block
			// read is the device's own.
			if existing, errno = dev.ReadBlock(node.Blocks[bi]); errno != kernel.OK {
				break
			}
		}
		// The new block is the old prefix with the chunk laid over it: as
		// long as the longer of the two, not BlockSize. It is handed over
		// to the device below and never touched again.
		block := make([]byte, max(len(existing), bo+chunk))
		copy(block, existing)
		copy(block[bo:], data[written:written+chunk])
		if errno = dev.WriteBlock(node.Blocks[bi], block); errno != kernel.OK {
			break
		}
		off += int64(chunk)
		written += chunk
	}
	if errno != kernel.OK {
		if fresh {
			// The chunk that failed wrote nothing into the block it took:
			// give it back.
			bi := off / BlockSize
			f.freeBlock(node.Blocks[bi])
			node.Blocks[bi] = 0
		}
		if written == 0 {
			return 0, errno // the stored inode is as it was
		}
	}
	if changed {
		// A write that stopped early leaves the slots it did not reach
		// zero: cut them, so the table ends at its last allocated slot.
		k := len(node.Blocks)
		for node.Blocks[k-1] == 0 {
			k--
		}
		node.Blocks = node.Blocks[:k:k]
	}
	if written > 0 && off > node.Size {
		node.Size, changed = off, true
	}
	// A failed chunk still keeps what came before it: the blocks already
	// written and a size that covers the bytes reported written, past the
	// old end too; a write that failed in its first chunk changes nothing.
	if errno == kernel.OK || changed {
		f.inodes.Set(ino, node)
	}
	return written, errno
}
