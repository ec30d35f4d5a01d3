package memlog

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// mapImage returns the image of a test store whose map holds keys, in
// order, each with the value "v".
func mapImage(t testing.TB, keys []string) []byte {
	t.Helper()
	s := NewStore("img-test", Optimized)
	_, m, _ := registerTestContainers(s)
	for _, k := range keys {
		m.Set(k, "v")
	}
	img, err := encodeStore(s)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// numbered returns the keys prefix0 to prefix(n-1).
func numbered(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return keys
}

// repeatKey returns img with the map's key at rank 1 overwritten by the
// key at rank 0, which has the same length.
func repeatKey(t testing.TB, img []byte, keys []string) []byte {
	t.Helper()
	i := bytes.Index(img, []byte(keys[1]+"\x01v"))
	if len(keys[0]) != len(keys[1]) || i < 0 {
		t.Fatalf("no key %q of the length of %q in the image", keys[1], keys[0])
	}
	out := bytes.Clone(img)
	copy(out[i:], keys[0])
	return out
}

// collidingKeys returns n keys whose hashes share their low bits under
// the process's seed: all of them go to one slot of an index of 2n slots.
func collidingKeys(n int) []string {
	size := idxPageLen
	for size < 2*n {
		size *= 2
	}
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("c%07d", i); hashString(k)&uint64(size-1) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// decodeMap decodes img and returns its map, or the decode's error.
func decodeMap(img []byte) (*Map[string, string], error) {
	s, err := decodeStore(wire.NewDecoder(img))
	if err != nil {
		return nil, err
	}
	_, m, _ := registerTestContainers(s)
	return m, s.FinishDecode()
}

// longestProbe returns how far past its home slot the index holds any
// present key.
func longestProbe[K comparable, V any](m *Map[K, V]) int {
	longest := 0
	mask := len(m.idx.tab)<<idxPageShift - 1
	for i := 0; i <= mask; i++ {
		if s := m.slotAt(i); s != 0 {
			home := int(hashKey(m.at(int(s-1)).key)) & mask
			longest = max(longest, (i-home)&mask)
		}
	}
	return longest
}

// A payload that repeats a key is refused, whether the map finds its
// keys by a scan or through its index.
func TestStoreImageRejectsRepeatedKey(t *testing.T) {
	for _, n := range []int{2, mapScanLen, 5 * mapPageLen} {
		keys := numbered("k", n)
		keys[0], keys[1] = "ka", "kb"
		if _, err := decodeMap(mapImage(t, keys)); err != nil {
			t.Fatalf("%d keys: the image itself does not decode: %v", n, err)
		}
		_, err := decodeMap(repeatKey(t, mapImage(t, keys), keys))
		if err == nil || !strings.Contains(err.Error(), "repeats a key") {
			t.Errorf("%d keys, one repeated: decode error %v, want a repeated key", n, err)
		}
	}
}

// Keys chosen to collide in the index of one process spread in the index
// of another: the hash is keyed anew in every process (mapSeed), so an
// image cannot make a decode probe past every key before each key. Here
// the two processes are two seeds.
func TestHostileKeysDoNotSteerTheIndex(t *testing.T) {
	defer func(seed uint64) { mapSeed = seed }(mapSeed)
	const n = 300
	keys := collidingKeys(n)
	img := mapImage(t, keys)
	m, err := decodeMap(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := longestProbe(m); got < n-1 {
		t.Fatalf("the chosen keys probe at most %d slots past their home under the seed they were chosen for, want %d", got, n-1)
	}
	mapSeed ^= 0x9e3779b97f4a7c15
	if m, err = decodeMap(img); err != nil {
		t.Fatal(err)
	}
	if got := longestProbe(m); got > 24 {
		t.Errorf("under another seed the chosen keys still probe %d slots past their home", got)
	}
	if m.Len() != n {
		t.Fatalf("decoded %d keys, want %d", m.Len(), n)
	}
}

// A decode allocates a multiple of its payload: the slab from one
// allocation of the count the payload gives, which the payload's length
// bounds, and an index of at most four slots a key.
func TestMapDecodeAllocation(t *testing.T) {
	for _, n := range []int{3, 40, 1000} {
		img := mapImage(t, numbered("k", n))
		_, bytes := heapUse(func() {
			if _, err := decodeMap(img); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(32*len(img) + 8192); bytes > limit {
			t.Errorf("%d keys: decoding %d bytes of image allocated %d bytes, want at most %d", n, len(img), bytes, limit)
		}
	}
}

// Every key kind NewMap admits sets, finds and deletes its keys through
// a scan and through the index alike.
func TestMapKeyKinds(t *testing.T) {
	t.Run("int8", func(t *testing.T) { driveKeys(t, func(i int) int8 { return int8(i) }) })
	t.Run("int16", func(t *testing.T) { driveKeys(t, func(i int) int16 { return int16(i) }) })
	t.Run("int32", func(t *testing.T) { driveKeys(t, func(i int) int32 { return int32(i) }) })
	t.Run("int64", func(t *testing.T) { driveKeys(t, func(i int) int64 { return int64(i) }) })
	t.Run("int", func(t *testing.T) { driveKeys(t, func(i int) int { return i }) })
	t.Run("uint8", func(t *testing.T) { driveKeys(t, func(i int) uint8 { return uint8(i) }) })
	t.Run("uint16", func(t *testing.T) { driveKeys(t, func(i int) uint16 { return uint16(i) }) })
	t.Run("uint32", func(t *testing.T) { driveKeys(t, func(i int) uint32 { return uint32(i) }) })
	t.Run("uint64", func(t *testing.T) { driveKeys(t, func(i int) uint64 { return uint64(i) }) })
	t.Run("uint", func(t *testing.T) { driveKeys(t, func(i int) uint { return uint(i) }) })
	t.Run("bool", func(t *testing.T) { driveKeys(t, func(i int) bool { return i%2 == 1 }) })
	t.Run("string", func(t *testing.T) {
		driveKeys(t, func(i int) string { return strings.Repeat("k", i%9) + fmt.Sprint(i) })
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"coded"`) {
			t.Errorf("a map keyed by a struct: panic %v, want one naming it", r)
		}
	}()
	NewMap[rec, int](NewStore("kinds", Baseline), "coded")
}

func driveKeys[K comparable](t *testing.T, key func(int) K) {
	m := NewMap[K, int](NewStore("kinds", Baseline), "m")
	distinct := map[K]int{}
	for i := 0; i < 3*mapPageLen; i++ {
		m.Set(key(i), i)
		distinct[key(i)] = i
		if i%3 == 0 {
			m.Delete(key(i / 2))
			delete(distinct, key(i/2))
		}
		for k, v := range distinct {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("after %d sets: Get(%v) = %d, %v; want %d", i+1, k, got, ok, v)
			}
		}
		if m.Len() != len(distinct) {
			t.Fatalf("after %d sets: Len %d, want %d", i+1, m.Len(), len(distinct))
		}
	}
}

// A rollback puts deleted keys back where they stood after the deletes
// compacted the slab, and after a sibling copy wrote the page a deleted
// key's hole is in.
func TestMapUndoDeleteAcrossPages(t *testing.T) {
	s := NewStore("undo", Optimized)
	m := NewMap[int64, int64](s, "m")
	for k := int64(0); k < 4*mapPageLen; k++ {
		m.Set(k, k*k)
	}
	want := keysOf(m)
	s.SetLogging(true)
	s.Checkpoint()
	for k := int64(0); k < 4*mapPageLen; k++ {
		if k%5 != 0 {
			m.Delete(k)
		}
	}
	if m.n > 2*mapPageLen {
		t.Fatalf("%d slots for %d keys: the deletes did not compact the slab", m.n, m.live)
	}
	s.Rollback()
	if got := keysOf(m); !slices.Equal(got, want) {
		t.Fatalf("after deletes that compacted the slab, a rollback leaves keys %v, want %v", got, want)
	}

	s.Checkpoint()
	m.Delete(40)
	sibling := s.Clone()
	sm := NewMap[int64, int64](sibling, "m")
	sm.Set(41, -1) // copies the page that holds 40's hole
	s.Rollback()
	if got := keysOf(m); !slices.Equal(got, want) {
		t.Fatalf("after a sibling wrote the page of the hole, a rollback leaves keys %v, want %v", got, want)
	}
	if v, _ := m.Get(41); v != 41*41 {
		t.Fatalf("the sibling's write reached the map: key 41 holds %d", v)
	}
	if _, ok := sm.Get(40); ok || sm.Len() != len(want)-1 {
		t.Fatalf("the rollback reached the sibling: it holds key 40, or %d keys", sm.Len())
	}
}
