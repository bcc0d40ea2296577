package experiment

import "testing"

// BenchmarkReliabilityStudy runs the fault regime x recovery policy sweep
// over every application at 60 packets x 1 trial: nine faulty runs per
// application share one golden pass through the study's memo.
func BenchmarkReliabilityStudy(b *testing.B) {
	b.ReportAllocs()
	o := Options{Packets: 60, Trials: 1, Seed: 7}
	for i := 0; i < b.N; i++ {
		if _, err := Reliability(o); err != nil {
			b.Fatal(err)
		}
	}
}
