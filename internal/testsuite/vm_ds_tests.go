package testsuite

import (
	"strings"

	"repro/internal/kernel"
	"repro/internal/usr"
)

// addVMTests registers the Virtual Memory Manager coverage programs.
func addVMTests(m map[string]usr.Program) {
	add(m, "t_vm_meminfo", func(p *usr.Proc) int {
		pages, used, errno := p.MemInfo()
		if errno != kernel.OK || pages <= 0 || used < pages {
			return 1
		}
		return 0
	})

	add(m, "t_vm_brk_grow", func(p *usr.Proc) int {
		pages0, _, _ := p.MemInfo()
		np, errno := p.Brk(4)
		if errno != kernel.OK || np != pages0+4 {
			return 1
		}
		if _, errno := p.Brk(-4); errno != kernel.OK {
			return 2
		}
		return 0
	})

	add(m, "t_vm_brk_zero", func(p *usr.Proc) int {
		pages0, _, _ := p.MemInfo()
		np, errno := p.Brk(0)
		if errno != kernel.OK || np != pages0 {
			return 1
		}
		return 0
	})

	add(m, "t_vm_brk_shrink_too_much", func(p *usr.Proc) int {
		pages0, _, _ := p.MemInfo()
		if _, errno := p.Brk(-(pages0 + 100)); errno != kernel.EINVAL {
			return 1
		}
		return 0
	})

	add(m, "t_vm_brk_repeated", func(p *usr.Proc) int {
		for i := 0; i < 5; i++ {
			if _, errno := p.Brk(2); errno != kernel.OK {
				return 1
			}
			if _, errno := p.Brk(-2); errno != kernel.OK {
				return 2
			}
		}
		return 0
	})

	add(m, "t_vm_fork_copies_space", func(p *usr.Proc) int {
		p.Brk(6)
		myPages, _, _ := p.MemInfo()
		p.Fork(func(c *usr.Proc) int {
			cp, _, errno := c.MemInfo()
			if errno != kernel.OK || cp != myPages {
				return 1
			}
			return 0
		})
		_, status, errno := p.Wait()
		p.Brk(-6)
		if errno != kernel.OK || status != 0 {
			return 1
		}
		return 0
	})

	add(m, "t_vm_exit_frees", func(p *usr.Proc) int {
		_, used0, _ := p.MemInfo()
		p.Fork(func(c *usr.Proc) int {
			c.Brk(8)
			return 0
		})
		p.Wait()
		_, used1, errno := p.MemInfo()
		if errno != kernel.OK {
			return 1
		}
		if used1 != used0 {
			return 2 // the child's pages must be fully released
		}
		return 0
	})

	add(m, "t_vm_spawn_space", func(p *usr.Proc) int {
		pid, errno := p.Spawn("u_meminfo")
		if errno != kernel.OK {
			return 1
		}
		_, status, errno := p.Wait()
		if errno != kernel.OK || status != 0 {
			return 2
		}
		_ = pid
		return 0
	})
}

// addDSTests registers the Data Store coverage programs.
func addDSTests(m map[string]usr.Program) {
	add(m, "t_ds_put_get", func(p *usr.Proc) int {
		if errno := p.DsPut("k1", "v1"); errno != kernel.OK {
			return 1
		}
		v, errno := p.DsGet("k1")
		if errno != kernel.OK || v != "v1" {
			return 2
		}
		p.DsDelete("k1")
		return 0
	})

	add(m, "t_ds_overwrite", func(p *usr.Proc) int {
		p.DsPut("k2", "old")
		p.DsPut("k2", "new")
		v, errno := p.DsGet("k2")
		p.DsDelete("k2")
		if errno != kernel.OK || v != "new" {
			return 1
		}
		return 0
	})

	add(m, "t_ds_get_missing", func(p *usr.Proc) int {
		if _, errno := p.DsGet("never-stored"); errno != kernel.ENOENT {
			return 1
		}
		return 0
	})

	add(m, "t_ds_delete", func(p *usr.Proc) int {
		p.DsPut("k3", "v")
		if errno := p.DsDelete("k3"); errno != kernel.OK {
			return 1
		}
		if _, errno := p.DsGet("k3"); errno != kernel.ENOENT {
			return 2
		}
		return 0
	})

	add(m, "t_ds_delete_missing", func(p *usr.Proc) int {
		if errno := p.DsDelete("never-stored"); errno != kernel.ENOENT {
			return 1
		}
		return 0
	})

	add(m, "t_ds_empty_key", func(p *usr.Proc) int {
		if errno := p.DsPut("", "v"); errno != kernel.EINVAL {
			return 1
		}
		return 0
	})

	add(m, "t_ds_keys_count", func(p *usr.Proc) int {
		n0, _ := p.DsKeys()
		p.DsPut("kc1", "a")
		p.DsPut("kc2", "b")
		n1, errno := p.DsKeys()
		p.DsDelete("kc1")
		p.DsDelete("kc2")
		if errno != kernel.OK || n1 != n0+2 {
			return 1
		}
		return 0
	})

	add(m, "t_ds_many_keys", func(p *usr.Proc) int {
		keys := []string{"ma", "mb", "mc", "md", "me", "mf", "mg", "mh"}
		for i, k := range keys {
			if errno := p.DsPut(k, string(rune('0'+i))); errno != kernel.OK {
				return 1
			}
		}
		for i, k := range keys {
			v, errno := p.DsGet(k)
			if errno != kernel.OK || v != string(rune('0'+i)) {
				return 2
			}
			p.DsDelete(k)
		}
		return 0
	})

	add(m, "t_ds_cross_process", func(p *usr.Proc) int {
		if errno := p.DsPut("shared", "from-parent"); errno != kernel.OK {
			return 1
		}
		p.Fork(func(c *usr.Proc) int {
			v, errno := c.DsGet("shared")
			if errno != kernel.OK || v != "from-parent" {
				return 1
			}
			return int(c.DsPut("shared", "from-child"))
		})
		_, status, errno := p.Wait()
		if errno != kernel.OK || status != 0 {
			return 2
		}
		v, errno := p.DsGet("shared")
		p.DsDelete("shared")
		if errno != kernel.OK || v != "from-child" {
			return 3
		}
		return 0
	})

	add(m, "t_ds_long_value", func(p *usr.Proc) int {
		long := strings.Repeat("0123456789", 100)
		p.DsPut("long", long)
		v, errno := p.DsGet("long")
		p.DsDelete("long")
		if errno != kernel.OK || v != long {
			return 1
		}
		return 0
	})
}
