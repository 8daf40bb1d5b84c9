package pool

import (
	"testing"
)

func TestNilArenaIsPlainMake(t *testing.T) {
	var a *Arena
	b := a.Bytes(100)
	if len(b) != 100 {
		t.Fatalf("nil arena Bytes(100) len = %d", len(b))
	}
	a.Put(b) // must not panic
	a.Reset()
	a.SetPoison(true)
	if s := a.Stats(); s != (Stats{}) {
		t.Fatalf("nil arena stats = %+v", s)
	}
	if a.Trials() != 0 {
		t.Fatalf("nil arena trials = %d", a.Trials())
	}
}

func TestBytesExactLength(t *testing.T) {
	a := New()
	for _, n := range []int{0, 1, 63, 64, 65, 1460, 4096, 65536, 70000} {
		b := a.Bytes(n)
		if len(b) != n {
			t.Fatalf("Bytes(%d) len = %d", n, len(b))
		}
	}
}

func TestPutGetReuses(t *testing.T) {
	a := New()
	b := a.Bytes(1460)
	b[0] = 0x42
	a.Put(b)
	c := a.Bytes(1000)
	if &c[0] != &b[0] {
		t.Fatalf("Bytes after Put did not reuse the buffer")
	}
	s := a.Stats()
	if s.Gets != 2 || s.Hits != 1 || s.Puts != 1 {
		t.Fatalf("stats = %+v, want Gets 2 Hits 1 Puts 1", s)
	}
}

func TestOversizeFallsBack(t *testing.T) {
	a := New()
	b := a.Bytes(1 << 17)
	if len(b) != 1<<17 {
		t.Fatalf("oversize len = %d", len(b))
	}
	a.Put(b)
	if s := a.Stats(); s.Oversize != 1 || s.Puts != 0 {
		t.Fatalf("oversize stats = %+v", s)
	}
}

func TestTinyPutDropped(t *testing.T) {
	a := New()
	a.Put(make([]byte, 8)) // below the bottom class: dropped
	if got := a.Bytes(8); cap(got) < 8 {
		t.Fatalf("Bytes(8) cap = %d", cap(got))
	}
	if s := a.Stats(); s.Hits != 0 {
		t.Fatalf("tiny Put should not populate a class: %+v", s)
	}
}

func TestPoisonScribbles(t *testing.T) {
	a := New()
	a.SetPoison(true)
	b := a.Bytes(256)
	for i := range b {
		b[i] = 0x11
	}
	a.Put(b)
	// The caller's stale reference must now see poison, not its data.
	for i, v := range b {
		if v != poisonByte {
			t.Fatalf("byte %d = %#x after Put with poison armed", i, v)
		}
	}
	c := a.Bytes(256)
	if &c[0] != &b[0] {
		t.Fatalf("poisoned buffer was not recycled")
	}
	for i, v := range c {
		if v != poisonByte {
			t.Fatalf("recycled byte %d = %#x, want poison (contents are unspecified, not zero)", i, v)
		}
	}
}

func TestResetKeepsFreeLists(t *testing.T) {
	a := New()
	b := a.Bytes(512)
	a.Put(b)
	a.Reset()
	if a.Trials() != 1 {
		t.Fatalf("trials = %d", a.Trials())
	}
	if s := a.Stats(); s != (Stats{}) {
		t.Fatalf("stats after Reset = %+v", s)
	}
	c := a.Bytes(512)
	if &c[0] != &b[0] {
		t.Fatalf("Reset dropped the free lists — cross-trial reuse is the point")
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1460, 5}, {16384, 8}, {65536, 10}, {65537, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

type node struct {
	payload []byte
	next    *node
}

func TestFreeListZeroesOnPut(t *testing.T) {
	var f FreeList[node]
	n := f.Get()
	n.payload = []byte{1}
	n.next = n
	f.Put(n)
	if f.Len() != 1 {
		t.Fatalf("len = %d", f.Len())
	}
	m := f.Get()
	if m != n {
		t.Fatalf("Get did not recycle")
	}
	if m.payload != nil || m.next != nil {
		t.Fatalf("Put did not zero the recycled value: %+v", m)
	}
}

func TestNilFreeList(t *testing.T) {
	var f *FreeList[node]
	n := f.Get()
	if n == nil {
		t.Fatalf("nil free list Get returned nil")
	}
	f.Put(n) // must not panic
	if f.Len() != 0 {
		t.Fatalf("nil free list len = %d", f.Len())
	}
}

func TestLocalOnePerTypeAcrossReset(t *testing.T) {
	if Local[FreeList[node]](nil) != nil {
		t.Fatal("nil arena handed out a list")
	}
	a := New()
	nodes := Local[FreeList[node]](a)
	if Local[FreeList[node]](a) != nodes {
		t.Fatal("second lookup returned a different list")
	}
	if any(Local[FreeList[Stats]](a)) == any(nodes) {
		t.Fatal("two struct types share a list")
	}
	nodes.Put(nodes.Get())
	a.Reset()
	if l := Local[FreeList[node]](a); l != nodes || l.Len() != 1 {
		t.Fatalf("list after Reset: same=%v len=%d, want the same list holding 1", l == nodes, l.Len())
	}
}

func BenchmarkArenaBytes(b *testing.B) {
	a := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := a.Bytes(1460)
		a.Put(buf)
	}
}
