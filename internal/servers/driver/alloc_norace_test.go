//go:build !race

package driver

import "testing"

// Allocation budget of the block path: reading hands out the stored
// prefix, the first write to a shared page copies that one page (the
// written buffer itself is adopted, whatever its length), later writes
// to it copy nothing.
func TestBlockPathAllocations(t *testing.T) {
	d := New(testBlocks)
	d.write(3, fill('a'))
	if n := testing.AllocsPerRun(100, func() { d.read(3); d.read(4) }); n != 0 {
		t.Errorf("read allocates %v times, want 0", n)
	}
	img := d.Share()
	buf := fill('b')
	fork := testing.AllocsPerRun(100, func() { NewFromImage(img) })
	forkAndWrite := testing.AllocsPerRun(100, func() { NewFromImage(img).write(5, buf) })
	if forkAndWrite-fork > 1 {
		t.Errorf("first write after a fork allocates %v times, want at most one page copy", forkAndWrite-fork)
	}
	f := NewFromImage(img)
	f.write(5, buf)
	if n := testing.AllocsPerRun(100, func() { f.write(6, buf) }); n != 0 {
		t.Errorf("write to an owned page allocates %v times, want 0", n)
	}
}
