package tensor

// Tests for CSR construction, structural validation and the accumulating
// sparse product.

import (
	"errors"
	"testing"
)

func TestCSRCheckedTypedErrors(t *testing.T) {
	cases := []struct {
		rows, cols int
		entries    []COO
	}{
		{-1, 3, nil},
		{3, -2, nil},
		{3, 3, []COO{E(3, 0, 1)}},
		{3, 3, []COO{E(0, 3, 1)}},
		{3, 3, []COO{E(-1, 0, 1)}},
		{0, 0, []COO{E(0, 0, 1)}},
	}
	for _, tc := range cases {
		_, err := NewCSRChecked(tc.rows, tc.cols, tc.entries)
		var be *CSRBoundsError
		if !errors.As(err, &be) {
			t.Fatalf("NewCSRChecked(%d,%d,%v) err=%v, want *CSRBoundsError", tc.rows, tc.cols, tc.entries, err)
		}
	}
	// Empty matrix with no entries is legal.
	c, err := NewCSRChecked(0, 0, nil)
	if err != nil || c.NNZ() != 0 {
		t.Fatalf("empty CSR rejected: %v", err)
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	good := NewCSR(2, 3, []COO{E(0, 0, 1), E(0, 2, 2), E(1, 1, 3)})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	corrupt := []func(*CSR){
		func(c *CSR) { c.RowPtr = c.RowPtr[:len(c.RowPtr)-1] },
		func(c *CSR) { c.RowPtr[1] = 5 },
		func(c *CSR) { c.ColIdx[1] = 0 }, // duplicates column 0 in row 0
		func(c *CSR) { c.ColIdx[2] = 9 },
		func(c *CSR) { c.Val = c.Val[:2] },
	}
	for i, mut := range corrupt {
		c := NewCSR(2, 3, []COO{E(0, 0, 1), E(0, 2, 2), E(1, 1, 3)})
		mut(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("corruption %d not caught", i)
		}
	}
}

func TestMulDenseAccAccumulates(t *testing.T) {
	c := NewCSR(2, 3, []COO{E(0, 0, 2), E(1, 2, -1)})
	x := New(3, 2)
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	base := New(2, 2)
	for i := range base.Data {
		base.Data[i] = 10
	}
	dst := New(2, 2)
	copy(dst.Data, base.Data)
	c.MulDenseAcc(dst, x)
	prod := New(2, 2)
	c.MulDense(prod, x)
	for i := range dst.Data {
		if dst.Data[i] != base.Data[i]+prod.Data[i] {
			t.Fatalf("MulDenseAcc wrong at %d: %v, want %v", i, dst.Data[i], base.Data[i]+prod.Data[i])
		}
	}
}
