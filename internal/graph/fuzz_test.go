package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets harden the two parsers against malformed input: they must
// return an error or a structurally valid graph, never panic or produce a
// graph that fails validation. `go test` exercises the seed corpus; run
// `go test -fuzz=FuzzReadEdgeList ./internal/graph` for a full campaign.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 0.5\n")
	f.Add("# comment\n\n10 20 0.25\n20 10\n")
	f.Add("a b c\n")
	f.Add("0")
	f.Add("-1 5\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("0 1 nan\n0 2 -3\n0 3 7e300\n")
	f.Add("0 2 -3\n0 3 7e300\n1 0 inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, orig, err := ReadEdgeList(strings.NewReader(input), ReadOptions{})
		if err != nil {
			return
		}
		if g.N() != len(orig) {
			t.Fatalf("vertex count %d but %d original ids", g.N(), len(orig))
		}
		// Structural sanity: every edge endpoint in range and every
		// probability in [0,1] — the builder clamps out-of-range values and
		// the parser rejects NaN. The range test is negated so that a NaN
		// fails it.
		for _, e := range g.Edges() {
			if e.From < 0 || int(e.From) >= g.N() || e.To < 0 || int(e.To) >= g.N() {
				t.Fatalf("edge out of range: %+v", e)
			}
			if !(e.P >= 0 && e.P <= 1) {
				t.Fatalf("probability outside [0,1]: %+v", e)
			}
		}
		// Round trip must succeed on anything we accepted.
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := toy().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add([]byte("IMGB"))
	f.Add([]byte{})
	// A few single-byte corruptions of the valid payload.
	for _, pos := range []int{0, 5, 15, 30, len(good) - 1} {
		c := append([]byte(nil), good...)
		c[pos] ^= 0xFF
		f.Add(c)
	}
	// A checksummed file whose row 4 lists its targets out of order.
	unsorted := toy().Clone()
	row := unsorted.outTo[unsorted.outStart[4]:unsorted.outStart[5]]
	row[0], row[1] = row[1], row[0]
	buf.Reset()
	if err := unsorted.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted graphs must satisfy all CSR invariants (validate panics
		// on violation, which the fuzzer reports as a crash): targets in
		// range, each row strictly ascending with no self-loop.
		if g.N() < 0 || g.M() < 0 {
			t.Fatal("negative sizes")
		}
		for u := V(0); int(u) < g.N(); u++ {
			prev := V(-1)
			for _, v := range g.OutNeighbors(u) {
				if v < 0 || int(v) >= g.N() {
					t.Fatalf("edge target %d out of range", v)
				}
				if v <= prev || v == u {
					t.Fatalf("row %d breaks the CSR order: %v", u, g.OutNeighbors(u))
				}
				prev = v
			}
			for _, p := range g.OutProbs(u) {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("probability %v outside [0,1]", p)
				}
			}
		}
		// UnifySeeds copies rows as they are into NewFromCSR, so it is the
		// consumer that panics first on a row the load let through.
		if g.N() >= 2 {
			g.UnifySeeds([]V{0, V(g.N() - 1)})
		}
	})
}
