// Package proto defines the inter-component message protocols of the
// simulated OS: message type constants and payload conventions for the
// Process Manager, Virtual Memory Manager, VFS, Data Store, Recovery
// Server, system task and disk driver.
//
// Payload conventions use the generic Message registers (A..D, Str,
// Bytes, Aux); each constant documents its fields. Replies carry their
// status in Message.Errno.
package proto

import "repro/internal/kernel"

// Process Manager protocol (100–119).
const (
	// PMFork creates a child process. Aux: the child body (usr wraps a
	// program function). Reply: A = child pid.
	PMFork kernel.MsgType = 100 + iota
	// PMExit terminates the caller. A = exit status. No reply (the
	// caller ceases to exist).
	PMExit
	// PMWait blocks until a child exits. Reply: A = pid, B = status.
	PMWait
	// PMGetPID returns the caller's pid. Reply: A = pid, B = parent pid.
	PMGetPID
	// PMKill terminates the process with pid A. Reply: status only.
	PMKill
	// PMExec replaces the caller's image with the program named Str.
	// Aux: argv ([]string). Reply only on failure.
	PMExec
	// PMSleep suspends the caller for A cycles. Reply: status only.
	PMSleep
	// PMUserCrashed is injected by the recovery engine when a user
	// process fail-stops: PM cleans up as for an abnormal exit. A = ep.
	PMUserCrashed
	// PMSpawn forks and execs program Str with argv Aux in one request
	// (posix_spawn-style). Reply: A = child pid.
	PMSpawn
)

// Virtual Memory Manager protocol (120–139).
const (
	// VMNewProc sets up an address space. A = endpoint, B = pages.
	VMNewProc kernel.MsgType = 120 + iota
	// VMFork duplicates an address space. A = parent ep, B = child ep.
	VMFork
	// VMExit releases an address space. A = endpoint.
	VMExit
	// VMBrk adjusts a data segment. A = endpoint, B = delta pages.
	// Reply: A = new size in pages.
	VMBrk
	// VMQuery reports address-space usage. A = endpoint. Reply: A =
	// pages, B = total used pages system-wide.
	VMQuery
)

// VFS protocol (140–169).
const (
	// VFSOpen opens Str; A = flags (OpenFlags). Reply: A = fd.
	VFSOpen kernel.MsgType = 140 + iota
	// VFSClose closes fd A.
	VFSClose
	// VFSRead reads up to B bytes from fd A. Reply: Bytes = data.
	VFSRead
	// VFSWrite writes Bytes to fd A. Reply: A = bytes written.
	VFSWrite
	// VFSUnlink removes path Str.
	VFSUnlink
	// VFSMkdir creates directory Str.
	VFSMkdir
	// VFSStat stats path Str. Reply: A = size, B = type, C = ino.
	VFSStat
	// VFSPipe creates a pipe. Reply: A = read fd, B = write fd.
	VFSPipe
	// VFSSeek sets fd A's offset to B (absolute). Reply: A = offset.
	VFSSeek
	// VFSReadDir lists directory Str. Reply: Aux = []string names.
	VFSReadDir
	// VFSForkFDs copies the fd table of ep A to ep B (PM on fork).
	VFSForkFDs
	// VFSExitFDs closes every fd of ep A (PM on exit).
	VFSExitFDs
	// VFSSync flushes dirty state to the device (used by fsdisk).
	VFSSync
	// VFSRename moves Str to Str2.
	VFSRename
	// VFSChdir sets the caller's working directory to Str.
	VFSChdir
	// VFSGetcwd reports the caller's working directory. Reply: Str.
	VFSGetcwd
)

// OpenFlags for VFSOpen.A.
const (
	// OCreate creates the file if missing.
	OCreate int64 = 1 << iota
	// OTrunc truncates the file on open.
	OTrunc
	// OExcl fails if the file exists (with OCreate).
	OExcl
)

// Data Store protocol (170–179).
const (
	// DSPut stores Str -> Str2. Reply: status.
	DSPut kernel.MsgType = 170 + iota
	// DSGet reads key Str. Reply: Str = value.
	DSGet
	// DSDelete removes key Str.
	DSDelete
	// DSKeys reports the number of keys. Reply: A = count.
	DSKeys
	// DSEvent is the asynchronous event notification DS publishes to
	// its subscriber (RS) on every request it serves, and to user
	// subscribers whose prefix matches a changed key (Str = key).
	DSEvent
	// DSSubscribe registers the caller for change events on keys with
	// prefix Str.
	DSSubscribe
	// DSUnsubscribe removes the caller's subscription.
	DSUnsubscribe
	// DSCleanup drops all state keyed to endpoint A (PM, at exit).
	DSCleanup
)

// Recovery Server protocol (180–189).
const (
	// RSPing is the heartbeat probe RS sends to each server; servers
	// reply immediately.
	RSPing kernel.MsgType = 180 + iota
	// RSStatus queries recovery statistics. Reply: A = recoveries
	// performed, B = components registered.
	RSStatus
	// RSHeartbeatTick is RS's self-scheduled alarm marker.
	RSHeartbeatTick
)

// System task protocol (190–199). The system task models the privileged
// kernel calls of the original prototype (sys_fork, sys_exec, page-table
// manipulation); it is part of the substrate, not a recoverable server.
const (
	// SysSpawn creates a process. Str = name, Aux = kernel.Body.
	// Reply: A = endpoint.
	SysSpawn kernel.MsgType = 190 + iota
	// SysTerminate destroys process with endpoint A.
	SysTerminate
	// SysReplace replaces the image of process A. Str = name,
	// Aux = kernel.Body (exec).
	SysReplace
	// SysMap installs page mappings: A = endpoint, B = pages.
	SysMap
	// SysUnmap removes page mappings: A = endpoint, B = pages.
	SysUnmap
)

// Driver protocol (200–209).
const (
	// DevRead reads block A. Synchronous: reply Bytes = the block's
	// written prefix (at most fs.BlockSize bytes; every byte past it
	// reads as zero; nil when the block was never written).
	// Asynchronous (NeedsReply false): response DevReadDone is sent to
	// the requester with D echoed (thread routing tag).
	DevRead kernel.MsgType = 200 + iota
	// DevWrite writes Bytes to block A as its new prefix: the bytes past
	// len(Bytes) read as zero. D is echoed like DevRead.
	DevWrite
	// DevReadDone is the asynchronous completion of DevRead.
	DevReadDone
	// DevWriteDone is the asynchronous completion of DevWrite.
	DevWriteDone
	// DevInfo reports geometry. Reply: A = blocks.
	DevInfo
)

// EpSys is the endpoint of the system task.
const EpSys kernel.Endpoint = 8
