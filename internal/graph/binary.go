package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary graph serialization: a fixed little-endian layout that loads the
// million-vertex datasets orders of magnitude faster than text edge lists
// (no parsing, no id interning, one allocation per array). Format:
//
//	magic "IMGB" | version u32 | n u64 | m u64
//	outStart [n+1]u32 | outTo [m]u32 | outP [m]f64
//	crc32 u32        (version >= 2 only)
//
// The v2 footer is the IEEE CRC32 of every preceding byte (magic, header
// and arrays), so a snapshot truncated or bit-flipped at rest is detected
// at load instead of silently producing a wrong graph — the contract the
// durable store's crash recovery depends on. v1 files (no footer) are
// still read.
//
// The in-CSR is rebuilt on load (cheaper than storing it).
const (
	binaryMagic   = "IMGB"
	binaryVersion = 2
)

// crcWriter tees every written byte into a running IEEE CRC32.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader tees every consumed byte into a running IEEE CRC32. It sits
// between the buffered reader and the parser, so read-ahead buffering never
// pollutes the checksum.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// WriteBinary serializes the graph to w in the current (v2) format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write([]byte(binaryMagic)); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.M()))
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	if err := writeU32s(cw, g.outStart); err != nil {
		return err
	}
	if err := writeU32s(cw, g.outTo); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, p := range g.outP {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(p))
		if _, err := cw.Write(buf); err != nil {
			return err
		}
	}
	// Footer: CRC of everything above, written outside the hashing tee.
	binary.LittleEndian.PutUint32(buf[:4], cw.crc)
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. Both the current
// v2 format (CRC32 footer) and legacy v1 files (no footer) are accepted;
// for v2 a checksum mismatch fails the load before the graph is trusted.
// The arrays must also form a CSR that NewFromCSR accepts: monotone
// offsets, targets in range, and each row strictly ascending with no
// self-loop. A row that breaks this fails the load with an error naming
// it. A NaN probability fails it naming the edge; a finite one outside
// [0,1] is clamped, as the other loaders do.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := &crcReader{r: br}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	hdr := make([]byte, 4+8+8)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:])
	if version != 1 && version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	const maxReasonable = 1 << 33
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	outStart, err := readU32s(cr, int(n)+1)
	if err != nil {
		return nil, err
	}
	outTo, err := readU32s(cr, int(m))
	if err != nil {
		return nil, err
	}
	outP := make([]float64, 0, min(m, readChunk))
	buf := make([]byte, 8)
	for uint64(len(outP)) < m {
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, fmt.Errorf("graph: reading probabilities: %w", err)
		}
		outP = append(outP, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
	}
	if version >= 2 {
		// The footer is read outside the hashing tee: cr.crc now covers
		// exactly the bytes the writer hashed.
		want := cr.crc
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("graph: reading checksum footer: %w", err)
		}
		if got := binary.LittleEndian.Uint32(buf[:4]); got != want {
			return nil, fmt.Errorf("graph: checksum mismatch (file %08x, computed %08x)", got, want)
		}
	}
	for i, p := range outP {
		if math.IsNaN(p) {
			return nil, fmt.Errorf("graph: edge %d: probability is NaN", i)
		}
	}
	return newFromCSR(int(n), outStart, outTo, outP)
}

// rebuildIn reconstructs the in-CSR from the out-CSR.
func (g *Graph) rebuildIn() {
	m := len(g.outTo)
	g.inStart = make([]int32, g.n+1)
	g.inTo = make([]V, m)
	g.inP = make([]float64, m)
	for _, v := range g.outTo {
		g.inStart[v+1]++
	}
	for i := 0; i < g.n; i++ {
		g.inStart[i+1] += g.inStart[i]
	}
	fill := make([]int32, g.n)
	for u := V(0); int(u) < g.n; u++ {
		for j := g.outStart[u]; j < g.outStart[u+1]; j++ {
			v := g.outTo[j]
			idx := g.inStart[v] + fill[v]
			g.inTo[idx] = u
			g.inP[idx] = g.outP[j]
			fill[v]++
		}
	}
}

// WriteBinaryFile writes the graph to path.
func (g *Graph) WriteBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile loads a graph written by WriteBinaryFile.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

func writeU32s(w io.Writer, xs []int32) error {
	buf := make([]byte, 4*1024)
	for off := 0; off < len(xs); {
		chunk := len(xs) - off
		if chunk > 1024 {
			chunk = 1024
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(xs[off+i]))
		}
		if _, err := w.Write(buf[:4*chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// readChunk caps the capacity ReadBinary reserves ahead of the data: the
// arrays grow as their bytes arrive, so a corrupt header claiming billions
// of vertices or edges fails at end of input instead of first allocating
// gigabytes for them.
const readChunk = 1 << 16

func readU32s(r io.Reader, n int) ([]int32, error) {
	xs := make([]int32, 0, min(n, readChunk))
	buf := make([]byte, 4*1024)
	for len(xs) < n {
		chunk := min(n-len(xs), 1024)
		if _, err := io.ReadFull(r, buf[:4*chunk]); err != nil {
			return nil, fmt.Errorf("graph: reading u32 block: %w", err)
		}
		for i := 0; i < chunk; i++ {
			xs = append(xs, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return xs, nil
}
