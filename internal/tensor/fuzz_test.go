package tensor

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// fuzzFloats decodes data into n float64s in a bounded range, recycling
// bytes when data is short. NaN/Inf bit patterns are mapped into the finite
// range so the differential oracles compare meaningful arithmetic; the
// dedicated softmax target covers non-finite inputs.
func fuzzFloats(data []byte, n int) []float64 {
	out := make([]float64, n)
	if len(data) == 0 {
		data = []byte{1}
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			buf[j] = data[(i*8+j)%len(data)]
		}
		bits := binary.LittleEndian.Uint64(buf[:])
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(bits%2001)/1000 - 1
		}
		// Clamp magnitude so products stay finite.
		if v > 1e6 {
			v = 1e6
		} else if v < -1e6 {
			v = -1e6
		}
		out[i] = v
	}
	return out
}

// FuzzMatMul: the k-blocked (and optionally goroutine-parallel) MatMul must
// be bit-identical to the naive triple loop — the checkpoint/resume
// determinism guarantees depend on it. Dimensions cross the 64-wide block
// boundary so the blocked path is actually exercised.
func FuzzMatMul(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(65), uint8(70), uint8(3), []byte{0xff, 0x01, 0x80})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, data []byte) {
		m := 1 + int(mr)%70
		k := 1 + int(kr)%70
		n := 1 + int(nr)%8
		vals := fuzzFloats(data, m*k+k*n)
		a, b := New(m, k), New(k, n)
		copy(a.Data, vals[:m*k])
		copy(b.Data, vals[m*k:])

		got := New(m, n)
		MatMul(got, a, b)

		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += a.At(i, p) * b.At(p, j)
				}
				want.Set(i, j, s)
			}
		}
		for i := range got.Data {
			g, w := got.Data[i], want.Data[i]
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("blocked MatMul diverges from naive loop at %d: %v vs %v (dims %dx%dx%d)", i, g, w, m, k, n)
			}
		}
	})
}

// FuzzNewCSR: CSR construction from arbitrary COO entries must produce a
// structurally valid matrix (monotone RowPtr, per-row sorted unique
// columns, duplicates summed) whose MulDense agrees with the equivalent
// dense product.
func FuzzNewCSR(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 1, 10, 2, 3, 20, 0, 1, 5})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Add(uint8(8), uint8(2), []byte{7, 1, 200, 7, 1, 56, 0, 0, 1})
	// Satellite seeds for the sparse edge-case sweep: duplicate (row,col)
	// entries that must sum (including a cancellation to exactly zero),
	// interior empty rows, and unsorted column indices within one row.
	f.Add(uint8(4), uint8(4), []byte{2, 3, 138, 2, 3, 118, 1, 0, 129})                       // dup (2,3): +10 + -10 sums to 0
	f.Add(uint8(6), uint8(3), []byte{5, 0, 129})                                             // rows 0..4 empty, only last populated
	f.Add(uint8(2), uint8(8), []byte{1, 7, 130, 1, 0, 131, 1, 3, 132})                       // row 1 columns arrive 7,0,3
	f.Add(uint8(5), uint8(5), []byte{0, 4, 140, 0, 1, 135, 0, 4, 116, 3, 2, 129, 3, 2, 127}) // unsorted + dups mixed
	f.Fuzz(func(t *testing.T, rr, cr uint8, data []byte) {
		rows := 1 + int(rr)%16
		cols := 1 + int(cr)%16
		var entries []COO
		for i := 0; i+3 <= len(data) && len(entries) < 256; i += 3 {
			entries = append(entries, COO{
				Row: int(data[i]) % rows,
				Col: int(data[i+1]) % cols,
				Val: float64(int(data[i+2]) - 128),
			})
		}
		c := NewCSR(rows, cols, entries)

		if err := c.Validate(); err != nil {
			t.Fatalf("NewCSR output fails Validate: %v", err)
		}
		if len(c.RowPtr) != rows+1 || c.RowPtr[0] != 0 || c.RowPtr[rows] != len(c.ColIdx) || len(c.ColIdx) != len(c.Val) {
			t.Fatalf("CSR structure invalid: RowPtr=%v nnz=%d vals=%d", c.RowPtr, len(c.ColIdx), len(c.Val))
		}
		for i := 0; i < rows; i++ {
			if c.RowPtr[i] > c.RowPtr[i+1] {
				t.Fatalf("RowPtr not monotone at %d: %v", i, c.RowPtr)
			}
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				if c.ColIdx[p] < 0 || c.ColIdx[p] >= cols {
					t.Fatalf("column %d out of range", c.ColIdx[p])
				}
				if p > c.RowPtr[i] && c.ColIdx[p] <= c.ColIdx[p-1] {
					t.Fatalf("row %d columns not strictly sorted: %v", i, c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]])
				}
			}
		}

		// Differential: CSR×x must equal the dense sum of the COO entries.
		dense := New(rows, cols)
		for _, e := range entries {
			dense.Set(e.Row, e.Col, dense.At(e.Row, e.Col)+e.Val)
		}
		x := New(cols, 2)
		for i := range x.Data {
			x.Data[i] = float64(i%7) - 3
		}
		got, want := New(rows, 2), New(rows, 2)
		c.MulDense(got, x)
		MatMul(want, dense, x)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("CSR MulDense diverges from dense at %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	})
}

// FuzzSoftmaxRow: for any input row the guarded kernel must return either a
// probability vector (entries in [0,1], sum ≈ 1) or the documented all-zero
// fully-masked row — never NaN unless the input itself contained NaN. The
// all-(-Inf) seed is the regression for the masked-row NaN bug.
func FuzzSoftmaxRow(f *testing.F) {
	f.Add([]byte{})
	inf := make([]byte, 24)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(inf[i*8:], math.Float64bits(math.Inf(-1)))
	}
	f.Add(inf)
	plus := make([]byte, 16)
	binary.LittleEndian.PutUint64(plus[0:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(plus[8:], math.Float64bits(1.0))
	f.Add(plus)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 64 {
			n = 64
		}
		src := make([]float64, n)
		hasNaN := false
		for i := 0; i < n; i++ {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			if math.IsNaN(src[i]) {
				hasNaN = true
			}
		}
		dst := make([]float64, n)
		SoftmaxRow(dst, src)
		if hasNaN || n == 0 {
			return // NaN propagation is the contract; nothing else to check
		}
		var sum float64
		allZero := true
		for i, v := range dst {
			if math.IsNaN(v) {
				t.Fatalf("NaN output at %d for NaN-free input %v", i, src)
			}
			if v < 0 || v > 1 {
				t.Fatalf("output %v out of [0,1] at %d", v, i)
			}
			if v != 0 {
				allZero = false
			}
			sum += v
		}
		if allZero {
			return // fully masked row: documented zero-row semantics
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v for input %v", sum, src)
		}
	})
}

// FuzzNewCSRChecked: arbitrary (possibly out-of-bounds) coordinates must
// either build a CSR that validates or return a typed *CSRBoundsError
// naming the offending entry — never panic, never silently drop entries.
func FuzzNewCSRChecked(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{2, 2, 1}) // in bounds
	f.Add(uint8(3), uint8(3), []byte{3, 0, 1}) // row == rows
	f.Add(uint8(3), uint8(3), []byte{0, 7, 1}) // col >= cols
	f.Add(uint8(0), uint8(4), []byte{0, 0, 1}) // zero rows, any entry OOB
	f.Fuzz(func(t *testing.T, rr, cr uint8, data []byte) {
		rows := int(rr) % 16
		cols := int(cr) % 16
		var entries []COO
		oob := false
		for i := 0; i+3 <= len(data) && len(entries) < 256; i += 3 {
			e := COO{Row: int(data[i]) - 8, Col: int(data[i+1]) - 8, Val: float64(data[i+2])}
			if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
				oob = true
			}
			entries = append(entries, e)
		}
		c, err := NewCSRChecked(rows, cols, entries)
		if oob {
			var be *CSRBoundsError
			if !errors.As(err, &be) {
				t.Fatalf("out-of-bounds entries accepted: err=%v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("in-bounds entries rejected: %v", err)
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("checked CSR fails Validate: %v", verr)
		}
	})
}
