package simmem

import "testing"

// BenchmarkNewSpace measures creating the 9 MiB space a short route run
// sizes for. Pages materialise on first write, so this is the page table
// alone.
func BenchmarkNewSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if NewSpace(9<<20).Size() != 9<<20 {
			b.Fatal("wrong size")
		}
	}
}
