package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/rng"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := toy()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := toy()
	path := t.TempDir() + "/g.bin"
	if err := g.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for u := V(0); int(u) < a.N(); u++ {
		at, bt := a.OutNeighbors(u), b.OutNeighbors(u)
		ap, bp := a.OutProbs(u), b.OutProbs(u)
		if len(at) != len(bt) {
			t.Fatalf("vertex %d out-degree mismatch", u)
		}
		for i := range at {
			if at[i] != bt[i] || ap[i] != bp[i] {
				t.Fatalf("vertex %d edge %d mismatch", u, i)
			}
		}
		// In-adjacency must be faithfully rebuilt too.
		ait, bit := a.InNeighbors(u), b.InNeighbors(u)
		if len(ait) != len(bit) {
			t.Fatalf("vertex %d in-degree mismatch", u)
		}
		for i := range ait {
			if ait[i] != bit[i] {
				t.Fatalf("vertex %d in-edge %d mismatch", u, i)
			}
		}
	}
}

// roundTrip encodes and decodes g, failing the test on any error.
func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// TestBinaryRoundTripComposedWithReverse checks the binary codec composed
// with graph reversal in both orders: serialization must commute with the
// transform, and a double reversal through the codec must reproduce the
// original — including the rebuilt in-CSR the dominator algorithms consume.
func TestBinaryRoundTripComposedWithReverse(t *testing.T) {
	r := rng.New(17)
	b := NewBuilder(40)
	for i := 0; i < 150; i++ {
		b.AddEdge(V(r.Intn(40)), V(r.Intn(40)), r.Float64())
	}
	g := b.Build()

	// encode∘Reverse == Reverse (decoded).
	rev := g.Reverse()
	assertGraphsEqual(t, rev, roundTrip(t, rev))
	// Reverse∘decode∘encode == Reverse.
	assertGraphsEqual(t, rev, roundTrip(t, g).Reverse())
	// Reverse∘decode∘encode∘Reverse == identity.
	assertGraphsEqual(t, g, roundTrip(t, rev).Reverse())
}

// TestBinaryRoundTripComposedWithSubgraph runs induced-subgraph extraction
// through the codec: the decoded subgraph must match the direct extraction
// edge-for-edge, and extraction must commute with the round trip.
func TestBinaryRoundTripComposedWithSubgraph(t *testing.T) {
	r := rng.New(23)
	b := NewBuilder(50)
	for i := 0; i < 200; i++ {
		b.AddEdge(V(r.Intn(50)), V(r.Intn(50)), r.Float64())
	}
	g := b.Build()

	// A shuffled half of the vertices, so the renumbering is non-trivial.
	perm := r.Perm(50)
	keep := make([]V, 25)
	for i := range keep {
		keep[i] = V(perm[i])
	}
	sub, old := g.InducedSubgraph(keep)
	if len(old) != len(keep) {
		t.Fatalf("id mapping has %d entries, want %d", len(old), len(keep))
	}

	assertGraphsEqual(t, sub, roundTrip(t, sub))
	sub2, old2 := roundTrip(t, g).InducedSubgraph(keep)
	assertGraphsEqual(t, sub, sub2)
	for i := range old {
		if old[i] != old2[i] {
			t.Fatalf("id mapping diverged at %d: %d vs %d", i, old[i], old2[i])
		}
	}
	// Spot-check the extraction against the original through the mapping.
	for i, u := range old {
		for j, v := range old {
			if got, want := sub2.Prob(V(i), V(j)), g.Prob(u, v); got != want {
				t.Fatalf("edge (%d,%d)→(%d,%d): prob %v, want %v", u, v, i, j, got, want)
			}
		}
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	g := toy()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"truncated":    good[:len(good)/2],
		"short header": good[:10],
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}

	// Bad version.
	bad := append([]byte(nil), good...)
	bad[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: err = %v", err)
	}

	// Out-of-range edge target.
	bad = append([]byte(nil), good...)
	// outTo starts after magic(4)+header(20)+outStart((n+1)*4).
	off := 4 + 20 + (g.N()+1)*4
	bad[off] = 0xFF
	bad[off+1] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt edge target accepted")
	}
}

// writeRaw serializes g's arrays as they are, with a valid checksum, so a
// test can hand ReadBinary a file whose only fault is in its contents.
func writeRaw(t *testing.T, g *Graph) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// A NaN probability fails the load with the edge's index, even under a
// valid checksum.
func TestBinaryRejectsNaNProbability(t *testing.T) {
	g := toy().Clone()
	g.outP[3] = math.NaN()
	_, err := ReadBinary(writeRaw(t, g))
	if err == nil || !strings.Contains(err.Error(), "edge 3") {
		t.Errorf("err = %v, want an edge 3 error", err)
	}
}

// A finite or infinite probability outside [0,1] is clamped on load, in
// both CSRs, as Builder and NewFromCSR clamp it.
func TestBinaryClampsOutOfRangeProbability(t *testing.T) {
	for p, want := range map[float64]float64{-0.5: 0, 1.5: 1, math.Inf(1): 1, math.Inf(-1): 0} {
		g := toy().Clone()
		g.outP[3] = p
		u, v := V(3), g.outTo[3] // slot 3 is toy's edge v4→v5
		got, err := ReadBinary(writeRaw(t, g))
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if q := got.Prob(u, v); q != want {
			t.Errorf("p=%v: out-CSR p(%d,%d) = %v, want %v", p, u, v, q, want)
		}
		for i, w := range got.InNeighbors(v) {
			if w == u && got.InProbs(v)[i] != want {
				t.Errorf("p=%v: in-CSR p(%d,%d) = %v, want %v", p, u, v, got.InProbs(v)[i], want)
			}
		}
	}
}

// A row that is out of order, lists a target twice or holds a self-loop
// breaks the CSR invariant every consumer relies on (UnifySeeds copies rows
// as they are into NewFromCSR, which panics on them), so it fails the load
// with the row named, even under a valid checksum.
func TestBinaryRejectsMalformedRow(t *testing.T) {
	const u = 4 // toy's v5, out-neighbors v3, v6, v8, v9
	for name, corrupt := range map[string]func(row []V){
		"unsorted":        func(row []V) { row[0], row[1] = row[1], row[0] },
		"repeated target": func(row []V) { row[1] = row[0] },
		"self-loop":       func(row []V) { row[0] = u },
	} {
		g := toy().Clone()
		corrupt(g.outTo[g.outStart[u]:g.outStart[u+1]])
		_, err := ReadBinary(writeRaw(t, g))
		if err == nil || !strings.Contains(err.Error(), "row 4") {
			t.Errorf("%s: err = %v, want a row 4 error", name, err)
		}
	}
}

// A header claiming a billion vertices and edges over a few bytes of body
// fails at end of input without allocating for the claimed sizes first.
func TestBinaryHugeHeaderAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	hdr := make([]byte, 4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[4:], 1<<30)
	binary.LittleEndian.PutUint64(hdr[12:], 1<<30)
	buf.Write(hdr)
	buf.Write(make([]byte, 64))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(&buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated file with a huge header accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("rejecting it allocated %d bytes", alloc)
	}
}

// Property: binary round trip is the identity on random graphs.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		r := rng.New(seed)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(V(r.Intn(n)), V(r.Intn(n)), r.Float64())
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if g.N() != g2.N() || g.M() != g2.M() {
			return false
		}
		for _, e := range g.Edges() {
			if g2.Prob(e.From, e.To) != e.P {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	bld := NewBuilder(10000)
	r := rng.New(1)
	for i := 0; i < 50000; i++ {
		bld.AddEdge(V(r.Intn(10000)), V(r.Intn(10000)), r.Float64())
	}
	g := bld.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	bld := NewBuilder(10000)
	r := rng.New(1)
	for i := 0; i < 50000; i++ {
		bld.AddEdge(V(r.Intn(10000)), V(r.Intn(10000)), r.Float64())
	}
	var buf bytes.Buffer
	if err := bld.Build().WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
