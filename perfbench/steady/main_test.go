package main

import "testing"

// TestQuartilesMatchPython pins the cut points to what Python's
// statistics.quantiles(xs, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
