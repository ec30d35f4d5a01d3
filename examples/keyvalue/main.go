// Keyvalue runs a multi-process producer/consumer application over the
// Data Store and the VFS while the DS server is crashed periodically:
// the application-visible contract — a put either commits or fails with
// ECRASH, never half-applies — holds across every recovery, which is
// the paper's globally-consistent-recovery guarantee at work.
package main

import (
	"fmt"
	"os"
	"strconv"

	osiris "repro"
	"repro/internal/kernel"
)

const records = 40

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "keyvalue:", err)
		os.Exit(1)
	}
}

// tally is what the consumer found, record by record, and how many
// recoveries the run took.
type tally struct {
	committed  int // acknowledged and exact
	aborted    int // failed with ECRASH and absent
	wrong      int // acknowledged but lost or corrupted, or corrupted
	recoveries int
}

func run() error {
	t, err := simulate()
	if err != nil {
		return err
	}
	fmt.Println("Key-value store under periodic DS crashes (enhanced policy)")
	fmt.Printf("  records attempted:   %d\n", records)
	fmt.Printf("  acknowledged+exact:  %d\n", t.committed)
	fmt.Printf("  aborted (ECRASH):    %d\n", t.aborted)
	fmt.Printf("  absent after abort:  %d (rolled back, as guaranteed)\n", t.aborted)
	fmt.Printf("  contract violations: %d\n", t.wrong)
	fmt.Printf("  DS recoveries:       %d\n", t.recoveries)
	if t.wrong != 0 {
		return fmt.Errorf("consistency contract violated %d times", t.wrong)
	}
	if t.recoveries == 0 {
		return fmt.Errorf("no recoveries happened; the demo is vacuous")
	}
	return nil
}

// simulate runs the producer and the consumer on a machine whose Data
// Store crashes periodically.
func simulate() (tally, error) {
	var t tally
	sys := osiris.Boot(osiris.Options{Policy: osiris.PolicyEnhanced}, func(p *osiris.Proc) int {
		// Producer child: writes numbered records, tracking in a file
		// which ones the Data Store acknowledged.
		p.Fork(func(c *osiris.Proc) int {
			fd, errno := c.Create("/committed")
			if errno != osiris.OK {
				return 1
			}
			for i := 0; i < records; i++ {
				key := "rec" + strconv.Itoa(i)
				if c.DsPut(key, "value-"+strconv.Itoa(i)) == osiris.OK {
					c.Write(fd, []byte(key+"\n"))
				}
			}
			c.Close(fd)
			return 0
		})
		p.Wait()

		// Consumer: every acknowledged record must be present and
		// exact; unacknowledged ones must be absent or exact (a retry
		// may have succeeded) — never corrupted.
		fd, errno := p.Open("/committed", 0)
		if errno != osiris.OK {
			return 1
		}
		ackd := make(map[string]bool)
		var buf []byte
		for {
			chunk, errno := p.Read(fd, 4096)
			if errno != osiris.OK || len(chunk) == 0 {
				break
			}
			buf = append(buf, chunk...)
		}
		p.Close(fd)
		start := 0
		for i, b := range buf {
			if b == '\n' {
				ackd[string(buf[start:i])] = true
				start = i + 1
			}
		}

		for i := 0; i < records; i++ {
			key := "rec" + strconv.Itoa(i)
			want := "value-" + strconv.Itoa(i)
			v, errno := p.DsGet(key)
			switch {
			case ackd[key] && errno == osiris.OK && v == want:
				t.committed++
			case ackd[key]:
				t.wrong++ // acknowledged but lost or corrupted: violation
			case errno == osiris.OK && v == want:
				// An unacknowledged put that actually landed: fine.
			case errno != osiris.OK:
				t.aborted++
			default:
				t.wrong++
			}
		}
		return 0
	})

	// Crash DS on every 7th applied put: several recoveries during the
	// producer run.
	count := 0
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, site string) {
		if site == "ds.put.applied" && !sys.Kernel().InRecovery() {
			count++
			if count%7 == 0 {
				panic("keyvalue: periodic DS fault")
			}
		}
	})

	res := sys.Run(osiris.DefaultRunLimit)
	if res.Outcome != osiris.OutcomeCompleted {
		return t, fmt.Errorf("run ended with %v (%s)", res.Outcome, res.Reason)
	}
	t.recoveries = sys.Recoveries
	return t, nil
}
