package testsuite

import (
	"bytes"

	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/usr"
)

// addVFSTests registers the file-system coverage programs.
func addVFSTests(m map[string]usr.Program) {
	add(m, "t_fs_create_stat", func(p *usr.Proc) int {
		fd, errno := p.Create("/tmp/cs")
		if errno != kernel.OK {
			return 1
		}
		p.Close(fd)
		size, isDir, errno := p.Stat("/tmp/cs")
		if errno != kernel.OK || isDir || size != 0 {
			return 2
		}
		p.Unlink("/tmp/cs")
		return 0
	})

	add(m, "t_fs_open_missing", func(p *usr.Proc) int {
		if _, errno := p.Open("/tmp/nope", 0); errno != kernel.ENOENT {
			return 1
		}
		return 0
	})

	add(m, "t_fs_open_excl", func(p *usr.Proc) int {
		fd, errno := p.Open("/tmp/excl", proto.OCreate|proto.OExcl)
		if errno != kernel.OK {
			return 1
		}
		p.Close(fd)
		if _, errno := p.Open("/tmp/excl", proto.OCreate|proto.OExcl); errno != kernel.EEXIST {
			return 2
		}
		p.Unlink("/tmp/excl")
		return 0
	})

	add(m, "t_fs_roundtrip_small", func(p *usr.Proc) int {
		fd, errno := p.Create("/tmp/small")
		if errno != kernel.OK {
			return 1
		}
		if n, errno := p.Write(fd, []byte("hello osiris")); errno != kernel.OK || n != 12 {
			return 2
		}
		p.Close(fd)
		fd, _ = p.Open("/tmp/small", 0)
		data, errno := p.Read(fd, 64)
		if errno != kernel.OK || string(data) != "hello osiris" {
			return 3
		}
		p.Close(fd)
		p.Unlink("/tmp/small")
		return 0
	})

	add(m, "t_fs_roundtrip_multiblock", func(p *usr.Proc) int {
		payload := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
		fd, errno := p.Create("/tmp/big")
		if errno != kernel.OK {
			return 1
		}
		if n, errno := p.Write(fd, payload); errno != kernel.OK || n != len(payload) {
			return 2
		}
		p.Close(fd)
		fd, _ = p.Open("/tmp/big", 0)
		got := make([]byte, 0, len(payload))
		for {
			chunk, errno := p.Read(fd, 4096)
			if errno != kernel.OK {
				return 3
			}
			if len(chunk) == 0 {
				break
			}
			got = append(got, chunk...)
		}
		p.Close(fd)
		p.Unlink("/tmp/big")
		if !bytes.Equal(got, payload) {
			return 4
		}
		return 0
	})

	add(m, "t_fs_seek", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/seek")
		p.Write(fd, []byte("abcdefgh"))
		if errno := p.LSeek(fd, 4); errno != kernel.OK {
			return 1
		}
		data, errno := p.Read(fd, 2)
		if errno != kernel.OK || string(data) != "ef" {
			return 2
		}
		p.Close(fd)
		p.Unlink("/tmp/seek")
		return 0
	})

	add(m, "t_fs_seek_negative", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/seekneg")
		defer func() { p.Close(fd); p.Unlink("/tmp/seekneg") }()
		if errno := p.LSeek(fd, -1); errno != kernel.EINVAL {
			return 1
		}
		return 0
	})

	add(m, "t_fs_overwrite", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/ow")
		p.Write(fd, []byte("hello world"))
		p.LSeek(fd, 6)
		p.Write(fd, []byte("osiris"))
		p.LSeek(fd, 0)
		data, _ := p.Read(fd, 64)
		p.Close(fd)
		p.Unlink("/tmp/ow")
		if string(data) != "hello osiris" {
			return 1
		}
		return 0
	})

	add(m, "t_fs_truncate_on_open", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/tr")
		p.Write(fd, []byte("content"))
		p.Close(fd)
		fd, errno := p.Open("/tmp/tr", proto.OTrunc)
		if errno != kernel.OK {
			return 1
		}
		p.Close(fd)
		size, _, _ := p.Stat("/tmp/tr")
		p.Unlink("/tmp/tr")
		if size != 0 {
			return 2
		}
		return 0
	})

	add(m, "t_fs_unlink", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/ul")
		p.Close(fd)
		if errno := p.Unlink("/tmp/ul"); errno != kernel.OK {
			return 1
		}
		if _, _, errno := p.Stat("/tmp/ul"); errno != kernel.ENOENT {
			return 2
		}
		return 0
	})

	add(m, "t_fs_unlink_missing", func(p *usr.Proc) int {
		if errno := p.Unlink("/tmp/never-existed"); errno != kernel.ENOENT {
			return 1
		}
		return 0
	})

	add(m, "t_fs_mkdir", func(p *usr.Proc) int {
		if errno := p.Mkdir("/tmp/dir1"); errno != kernel.OK {
			return 1
		}
		_, isDir, errno := p.Stat("/tmp/dir1")
		if errno != kernel.OK || !isDir {
			return 2
		}
		p.Unlink("/tmp/dir1")
		return 0
	})

	add(m, "t_fs_mkdir_nested", func(p *usr.Proc) int {
		p.Mkdir("/tmp/a")
		p.Mkdir("/tmp/a/b")
		fd, errno := p.Open("/tmp/a/b/f", proto.OCreate)
		if errno != kernel.OK {
			return 1
		}
		p.Close(fd)
		if _, _, errno := p.Stat("/tmp/a/b/f"); errno != kernel.OK {
			return 2
		}
		p.Unlink("/tmp/a/b/f")
		p.Unlink("/tmp/a/b")
		p.Unlink("/tmp/a")
		return 0
	})

	add(m, "t_fs_mkdir_exists", func(p *usr.Proc) int {
		p.Mkdir("/tmp/dup")
		defer p.Unlink("/tmp/dup")
		if errno := p.Mkdir("/tmp/dup"); errno != kernel.EEXIST {
			return 1
		}
		return 0
	})

	add(m, "t_fs_rmdir_nonempty", func(p *usr.Proc) int {
		p.Mkdir("/tmp/ne")
		fd, _ := p.Open("/tmp/ne/f", proto.OCreate)
		p.Close(fd)
		if errno := p.Unlink("/tmp/ne"); errno != kernel.EINVAL {
			return 1
		}
		p.Unlink("/tmp/ne/f")
		if errno := p.Unlink("/tmp/ne"); errno != kernel.OK {
			return 2
		}
		return 0
	})

	add(m, "t_fs_readdir", func(p *usr.Proc) int {
		p.Mkdir("/tmp/ls")
		for _, n := range []string{"x", "y", "z"} {
			fd, _ := p.Open("/tmp/ls/"+n, proto.OCreate)
			p.Close(fd)
		}
		names, errno := p.ReadDir("/tmp/ls")
		if errno != kernel.OK || len(names) != 3 {
			return 1
		}
		for _, n := range names {
			p.Unlink("/tmp/ls/" + n)
		}
		p.Unlink("/tmp/ls")
		return 0
	})

	add(m, "t_fs_readdir_missing", func(p *usr.Proc) int {
		if _, errno := p.ReadDir("/tmp/ghost"); errno != kernel.ENOENT {
			return 1
		}
		return 0
	})

	add(m, "t_fs_stat_dir", func(p *usr.Proc) int {
		_, isDir, errno := p.Stat("/")
		if errno != kernel.OK || !isDir {
			return 1
		}
		return 0
	})

	add(m, "t_fs_open_dir_fails", func(p *usr.Proc) int {
		if _, errno := p.Open("/tmp", 0); errno != kernel.EISDIR {
			return 1
		}
		return 0
	})

	add(m, "t_fs_badfd", func(p *usr.Proc) int {
		if _, errno := p.Read(55, 10); errno != kernel.EBADF {
			return 1
		}
		if _, errno := p.Write(55, []byte("x")); errno != kernel.EBADF {
			return 2
		}
		if errno := p.Close(55); errno != kernel.EBADF {
			return 3
		}
		return 0
	})

	add(m, "t_fs_close_twice", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/c2")
		if errno := p.Close(fd); errno != kernel.OK {
			return 1
		}
		if errno := p.Close(fd); errno != kernel.EBADF {
			return 2
		}
		p.Unlink("/tmp/c2")
		return 0
	})

	add(m, "t_fs_many_files", func(p *usr.Proc) int {
		names := []string{"/tmp/m0", "/tmp/m1", "/tmp/m2", "/tmp/m3", "/tmp/m4", "/tmp/m5"}
		for i, n := range names {
			fd, errno := p.Create(n)
			if errno != kernel.OK {
				return 1
			}
			p.Write(fd, bytes.Repeat([]byte{byte('a' + i)}, 100))
			p.Close(fd)
		}
		for i, n := range names {
			fd, _ := p.Open(n, 0)
			data, _ := p.Read(fd, 200)
			p.Close(fd)
			if len(data) != 100 || data[0] != byte('a'+i) {
				return 2
			}
			p.Unlink(n)
		}
		return 0
	})

	add(m, "t_fs_sparse", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/sp")
		p.LSeek(fd, 2*fs.BlockSize)
		p.Write(fd, []byte("tail"))
		p.LSeek(fd, 0)
		data, errno := p.Read(fd, 16)
		p.Close(fd)
		p.Unlink("/tmp/sp")
		if errno != kernel.OK || len(data) != 16 {
			return 1
		}
		for _, b := range data {
			if b != 0 {
				return 2
			}
		}
		return 0
	})

	add(m, "t_fs_max_file_size", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/max")
		defer func() { p.Close(fd); p.Unlink("/tmp/max") }()
		p.LSeek(fd, int64(fs.NDirect*fs.BlockSize)-1)
		if _, errno := p.Write(fd, []byte("xy")); errno != kernel.ENOSPC {
			return 1
		}
		return 0
	})

	add(m, "t_fs_read_eof", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/eof")
		p.Write(fd, []byte("ab"))
		data, errno := p.Read(fd, 10) // offset already at end
		p.Close(fd)
		p.Unlink("/tmp/eof")
		if errno != kernel.OK || len(data) != 0 {
			return 1
		}
		return 0
	})

	add(m, "t_fs_fd_inherited", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/inh")
		p.Write(fd, []byte("shared"))
		p.Fork(func(c *usr.Proc) int {
			// The child's copy of the descriptor has its own offset copy.
			if errno := c.LSeek(fd, 0); errno != kernel.OK {
				return 1
			}
			data, errno := c.Read(fd, 6)
			if errno != kernel.OK || string(data) != "shared" {
				return 2
			}
			return 0
		})
		_, status, errno := p.Wait()
		p.Close(fd)
		p.Unlink("/tmp/inh")
		if errno != kernel.OK || status != 0 {
			return 1
		}
		return 0
	})

	add(m, "t_fs_exit_closes_fds", func(p *usr.Proc) int {
		p.Fork(func(c *usr.Proc) int {
			fd, errno := c.Create("/tmp/exitfd")
			if errno != kernel.OK {
				return 1
			}
			c.Write(fd, []byte("x"))
			return 0 // exit without closing
		})
		if _, status, errno := p.Wait(); errno != kernel.OK || status != 0 {
			return 1
		}
		// The file persists; the descriptor was reclaimed.
		if _, _, errno := p.Stat("/tmp/exitfd"); errno != kernel.OK {
			return 2
		}
		p.Unlink("/tmp/exitfd")
		return 0
	})

	add(m, "t_fs_sync", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/sy")
		p.Write(fd, []byte("flushed"))
		if errno := p.Sync(); errno != kernel.OK {
			return 1
		}
		p.Close(fd)
		p.Unlink("/tmp/sy")
		return 0
	})

	add(m, "t_fs_path_normalization", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/norm")
		p.Close(fd)
		if _, _, errno := p.Stat("/tmp/./norm"); errno != kernel.OK {
			return 1
		}
		if _, _, errno := p.Stat("/tmp/../tmp/norm"); errno != kernel.OK {
			return 2
		}
		// A relative path resolves against the working directory (the
		// default "/"), so a missing relative name is ENOENT.
		if _, _, errno := p.Stat("norm-missing"); errno != kernel.ENOENT {
			return 3
		}
		p.Unlink("/tmp/norm")
		return 0
	})

	add(m, "t_fs_write_read_interleaved", func(p *usr.Proc) int {
		fd, _ := p.Create("/tmp/iw")
		for i := 0; i < 10; i++ {
			if _, errno := p.Write(fd, []byte{byte('0' + i)}); errno != kernel.OK {
				return 1
			}
		}
		p.LSeek(fd, 0)
		data, _ := p.Read(fd, 20)
		p.Close(fd)
		p.Unlink("/tmp/iw")
		if string(data) != "0123456789" {
			return 2
		}
		return 0
	})
}
