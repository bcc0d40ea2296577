package circuit

import "testing"

// BenchmarkDefaultCell measures the per-call cost of the calibrated cell
// every fault model starts from. The calibration itself runs once per
// process, inside the first iteration, so a 1x run reports its cost.
func BenchmarkDefaultCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if DefaultCell().Margin <= 0 {
			b.Fatal("uncalibrated cell")
		}
	}
}
